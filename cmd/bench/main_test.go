package main

import "testing"

// TestGateEdges pins every host-time bound at its edge.
func TestGateEdges(t *testing.T) {
	allocs := func(n int64) *int64 { return &n }
	pair := func(ns, baseNs float64, a int64) row {
		return row{NsPerOp: ns, AllocsPerOp: allocs(a), Baseline: &baseline{"base", baseNs}}
	}
	for _, tc := range []struct {
		name       string
		row        row
		gate       gate
		fail, warn bool
	}{
		{"2x at 2.0", pair(1, 2.0, 0), speedup(2, true), false, false},
		{"2x at 1.99", pair(1, 1.99, 0), speedup(2, true), true, false},
		{"2x at 1.99 any allocs", pair(1, 1.99, 3), speedup(2, false), true, false},
		{"1x at 1.0", pair(1, 1.0, 0), speedup(1, false), false, false},
		{"1x at 0.99", pair(1, 0.99, 0), speedup(1, false), true, false},
		{"5x at 5.0", pair(1, 5.0, 0), speedup(5, true), false, false},
		{"5x at 4.99", pair(1, 4.99, 0), speedup(5, true), true, false},
		{"1.3x at 1.3", pair(1, 1.3, 0), speedup(1.3, true), false, false},
		{"1.3x at 1.29", pair(1, 1.29, 0), speedup(1.3, true), true, false},
		{"zero-alloc row at 1 alloc/op", pair(1, 10, 1), speedup(5, true), true, false},
		{"journey at 20.0%", pair(120, 100, 0), overhead(20, false), false, false},
		{"journey at 20.01%", pair(120.01, 100, 0), overhead(20, false), true, false},
		{"sampled at 5.0%", pair(105, 100, 0), overhead(5, true), false, false},
		{"sampled at 5.01%", pair(105.01, 100, 0), overhead(5, true), false, true},
		{"sampled at 50%", pair(150, 100, 0), overhead(5, true), false, true},
		{"journey with GC at 500%", pair(600, 100, 0), reportOnly, false, false},
		{"ips at floor", row{NsPerOp: 8e3}, minIPS(1e6, 8), false, false},
		{"ips below floor", row{NsPerOp: 8.01e3}, minIPS(1e6, 8), false, true},
		{"harness bytes identical", row{}, identical(true), false, false},
		{"harness bytes differ", row{}, identical(false), true, false},
	} {
		fail, warn := tc.gate.judge(tc.row)
		if (fail != "") != tc.fail || (warn != "") != tc.warn {
			t.Errorf("%s: fail=%q warn=%q, want fail=%v warn=%v", tc.name, fail, warn, tc.fail, tc.warn)
		}
	}
}

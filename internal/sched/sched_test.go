package sched

import (
	"math"
	"strings"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	apps := []*workload.App{workload.Linpack()}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" = must validate
	}{
		{"good", Config{Cores: 4, Duration: sim.Millisecond, Apps: apps}, ""},
		{"good-bw", Config{Cores: 4, Duration: sim.Millisecond, Apps: apps, BWTargetFrac: 0.5}, ""},
		{"good-warmup", Config{Cores: 4, Duration: sim.Millisecond, Warmup: sim.Millisecond, Apps: apps}, ""},
		{"zero-cores", Config{Cores: 0, Duration: 1, Apps: apps}, "cores"},
		{"negative-cores", Config{Cores: -3, Duration: 1, Apps: apps}, "cores"},
		{"zero-duration", Config{Cores: 1, Duration: 0, Apps: apps}, "duration"},
		{"negative-duration", Config{Cores: 1, Duration: -1, Apps: apps}, "duration"},
		{"negative-warmup", Config{Cores: 1, Duration: 1, Warmup: -1, Apps: apps}, "warmup"},
		{"no-apps", Config{Cores: 1, Duration: 1}, "no apps"},
		{"bw-nan", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: math.NaN()}, "NaN"},
		{"bw-negative", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: -0.1}, "negative"},
		{"bw-one", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: 1.0}, "below 1"},
		{"bw-above-one", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: 1.5}, "below 1"},
		{"bw-inf", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: math.Inf(1)}, "below 1"},
		{"bw-neg-inf", Config{Cores: 1, Duration: 1, Apps: apps, BWTargetFrac: math.Inf(-1)}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if tc.cfg.Costs == nil {
					t.Fatal("Validate must fill default costs")
				}
				return
			}
			if err == nil {
				t.Fatalf("bad config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestResultCanonicalStability(t *testing.T) {
	res := Result{
		Scheduler: "X",
		Cores:     4,
		Measured:  sim.Millisecond,
		Cycles:    CycleBreakdown{AppNs: 1, RuntimeNs: 2, KernelNs: 3, SwitchNs: 4, IdleNs: 5},
		Switches:  7,
		Apps: []AppResult{
			{Name: "a", Kind: workload.LatencyCritical, Offered: 10, Completed: 9,
				Latency:  stats.Summary{Count: 9, Avg: 1.5, P50: 1, P90: 2, P99: 3, P999: 4, Max: 5},
				NormTput: 0.25},
			{Name: "b", Kind: workload.BestEffort, BUsefulNs: 100, BWallNs: 120, AvgBWGBs: 8.4},
		},
	}
	c1, c2 := res.Canonical(), res.Canonical()
	if string(c1) != string(c2) {
		t.Fatal("canonical encoding unstable")
	}
	res.Apps[1].BUsefulNs++
	if string(res.Canonical()) == string(c1) {
		t.Fatal("canonical encoding ignores field changes")
	}
}

func TestRunAppliesPostRunHooks(t *testing.T) {
	remove := RegisterPostRunHook(func(cfg Config, r *Result) { r.Scheduler = "tampered" })
	defer remove()
	s := fakeScheduler{}
	res, err := Run(s, Config{Cores: 1, Duration: 1, Apps: []*workload.App{workload.Linpack()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "tampered" {
		t.Fatalf("hook not applied: %q", res.Scheduler)
	}
	remove()
	res, err = Run(s, Config{Cores: 1, Duration: 1, Apps: []*workload.App{workload.Linpack()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "fake" {
		t.Fatalf("removed hook still applied: %q", res.Scheduler)
	}
}

type fakeScheduler struct{}

func (fakeScheduler) Name() string { return "fake" }
func (fakeScheduler) Run(cfg Config) (Result, error) {
	return Result{Scheduler: "fake", Cores: cfg.Cores, Measured: cfg.Duration}, nil
}

func TestCycleBreakdown(t *testing.T) {
	c := CycleBreakdown{AppNs: 700, RuntimeNs: 100, KernelNs: 100, SwitchNs: 50, IdleNs: 50}
	if c.Total() != 1000 {
		t.Fatalf("total = %v", c.Total())
	}
	if math.Abs(c.OverheadFrac()-0.25) > 1e-9 {
		t.Fatalf("overhead = %v", c.OverheadFrac())
	}
	var zero CycleBreakdown
	if zero.OverheadFrac() != 0 {
		t.Fatal("zero breakdown overhead")
	}
	zero.Add(c)
	if zero.Total() != 1000 {
		t.Fatal("Add broken")
	}
}

func TestBWInflationAndAverage(t *testing.T) {
	b := BW{CapacityGBs: 40}
	if b.Inflation() != 1 {
		t.Fatal("empty inflation")
	}
	b.Add(30)
	if b.Inflation() != 1 {
		t.Fatal("under capacity should not inflate")
	}
	b.Add(30) // 60 total over 40 capacity
	if math.Abs(b.Inflation()-1.5) > 1e-9 {
		t.Fatalf("inflation = %v", b.Inflation())
	}
	b.Remove(30)
	if b.Demand() != 30 {
		t.Fatalf("demand = %v", b.Demand())
	}
	// Unlimited capacity never inflates.
	free := BW{}
	free.Add(1000)
	if free.Inflation() != 1 {
		t.Fatal("zero-capacity BW should not inflate")
	}
}

func TestIdealCapacityAndNormalize(t *testing.T) {
	capacity := IdealLCapacity(8, workload.Memcached())
	if math.Abs(capacity-8e6) > 1 {
		t.Fatalf("capacity = %v", capacity)
	}
	if IdealLCapacity(8, workload.FixedDist{D: 0}) != 0 {
		t.Fatal("zero service time capacity")
	}
	mc := workload.NewLApp("mc", workload.Memcached(), 4e6)
	lp := workload.Linpack()
	cfg := Config{Cores: 8, Duration: 10 * sim.Millisecond, Apps: []*workload.App{mc, lp}, Costs: cpu.Default()}
	res := Result{
		Cores:    8,
		Measured: 10 * sim.Millisecond,
		Apps: []AppResult{
			{Name: "mc", Kind: workload.LatencyCritical, Tput: stats.Rate{Count: 40000, Elapsed: int64(10 * sim.Millisecond)}},
			{Name: "lp", Kind: workload.BestEffort, BUsefulNs: sim.Duration(4) * 10 * sim.Millisecond},
		},
	}
	Normalize(&res, cfg)
	if math.Abs(res.Apps[0].NormTput-0.5) > 1e-9 {
		t.Fatalf("L norm = %v", res.Apps[0].NormTput)
	}
	if math.Abs(res.Apps[1].NormTput-0.5) > 1e-9 {
		t.Fatalf("B norm = %v", res.Apps[1].NormTput)
	}
	if math.Abs(res.TotalNormTput()-1.0) > 1e-9 {
		t.Fatalf("total = %v", res.TotalNormTput())
	}
	if _, ok := res.App("mc"); !ok {
		t.Fatal("App lookup")
	}
	if _, ok := res.App("nope"); ok {
		t.Fatal("phantom app")
	}
	res.Apps[0].Latency.P999 = 42
	if res.LAppP999() != 42 {
		t.Fatal("LAppP999")
	}
}

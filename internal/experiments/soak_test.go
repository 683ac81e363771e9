package experiments

import (
	"testing"

	"vessel/internal/harness"
	"vessel/internal/sim"
)

// TestSoakLongDeterministicRuns exercises every scheduler for a long
// (100 ms virtual) run under bursty load, re-checking the conservation
// invariants and byte-for-byte determinism. Skipped under -short.
func TestSoakLongDeterministicRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	o := Options{Seed: 21, Quick: true}
	mc := mcSpec(0.4)
	mc.Burst = &harness.BurstSpec{OnUs: 500, OffUs: 500, Factor: 2}
	spec := o.spec("", mc, linpackSpec())
	spec.Cores = 8
	spec.DurationNs = int64(100 * sim.Millisecond)
	spec.WarmupNs = int64(10 * sim.Millisecond)
	for _, name := range fig9Systems() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := harness.SchedulerByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg1 := spec.Config()
			res1, err := s.Run(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, "soak/"+name, cfg1, res1)
			// Determinism across an identical rebuild.
			cfg2 := spec.Config()
			res2, err := s.Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			a1, _ := res1.App("memcached")
			a2, _ := res2.App("memcached")
			if a1.Completed != a2.Completed || a1.Latency.P999 != a2.Latency.P999 {
				t.Fatalf("soak nondeterminism: %d/%d vs %d/%d",
					a1.Completed, a1.Latency.P999, a2.Completed, a2.Latency.P999)
			}
		})
	}
}

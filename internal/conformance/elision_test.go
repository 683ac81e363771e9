package conformance

import (
	"bytes"
	"testing"

	"vessel/internal/harness"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
)

// TestDeadArrivalElisionInvisible: releasing the arrivals a saturated
// FIFO server can never reach before the run ends, and only counting the
// ones after them, changes no canonical byte. A journey-traced run keeps
// every arrival, so each cell runs every system with a tracer and without
// one and compares the bytes. The plain run fires no more engine events
// than the traced one, and strictly fewer for each system the cell names
// as reaching the cutoff, so the comparison is not vacuous. The cells are
// short versions of bench's colo-16c (every system) and saturate-44c
// (VESSEL and Caladan-DR-L) and quick generated scenario 6, an overloaded
// cell, on every system.
func TestDeadArrivalElisionInvisible(t *testing.T) {
	memcached := func(cores int, load float64, durUs, warmUs int64) Scenario {
		return Scenario{Seed: 1, Cores: cores, DurationUs: durUs, WarmupUs: warmUs, Apps: []harness.AppSpec{
			{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: load},
			{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
		}}
	}
	drl := caladan.Simulator{Variant: caladan.DRLow}
	for _, c := range []struct {
		name    string
		sc      Scenario
		systems []sched.Scheduler
		cut     map[string]bool // systems whose plain run must elide
	}{
		{"colo-16c", memcached(16, 0.8, 3000, 600), Systems(), map[string]bool{"Arachne": true}},
		{"saturate-44c", memcached(44, 0.9, 2000, 500), []sched.Scheduler{Systems()[0], drl},
			map[string]bool{"VESSEL": true, drl.Name(): true}},
		{"generated-6", Generate(6, true), Systems(), map[string]bool{"Caladan": true, "Arachne": true}},
	} {
		for _, s := range c.systems {
			plain, err := s.Run(c.sc.Config())
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.sc.Config()
			cfg.Journey = journey.NewTracer(journey.Config{})
			traced, err := s.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.Canonical(), traced.Canonical()) {
				t.Errorf("%s %s: canonical bytes differ with every arrival kept\n--- elided\n%s--- kept\n%s",
					c.name, s.Name(), plain.Canonical(), traced.Canonical())
			}
			p, k := plain.Events(), traced.Events()
			t.Logf("%s %s: %d engine events elided, %d kept", c.name, s.Name(), p, k)
			if p > k {
				t.Errorf("%s %s: %d engine events with elision, more than the %d with every arrival kept", c.name, s.Name(), p, k)
			}
			if c.cut[s.Name()] && p == k {
				t.Errorf("%s %s: %d engine events either way: the run no longer reaches the cutoff", c.name, s.Name(), p)
			}
		}
	}
}

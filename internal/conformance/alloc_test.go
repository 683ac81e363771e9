package conformance

import (
	"testing"

	"vessel/internal/harness"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
	"vessel/internal/sim"
)

// maxAllocsPerRequest bounds heap allocations per offered request over a
// whole short run (set-up included) of every layer-2 model. Event
// dispatch, the control planes and the app queues allocate next to
// nothing, and requests live in the run's store, allocated a chunk of
// workload.ChunkSize at a time, and reused once completed. Arachne and
// Linux fall behind in this run and hold most of their requests in
// backlogs, which used to cost one heap object per arrival. Measured on
// the run below (16 cores, memcached at load 0.8 plus linpack, 2.5 ms,
// seed 1), the same under -race:
//
//	                 closures per event   callbacks bound once   requests reused   request chunks
//	VESSEL                  4.60                 1.05                 0.048             0.046
//	Caladan                 4.75                 1.02                 0.050             0.020
//	Arachne                 2.24                 1.08                 1.004             0.008
//	Linux                   2.02                 1.02                 1.016             0.019
//	Caladan-DR-L            4.42                 1.01                 0.042             0.012
var maxAllocsPerRequest = map[string]float64{
	"VESSEL":       0.1,
	"Caladan":      0.1,
	"Caladan-DR-L": 0.1,
	"Arachne":      0.1,
	"Linux":        0.1,
}

func TestSchedulerAllocsPerRequest(t *testing.T) {
	for _, s := range append(Systems(), caladan.Simulator{Variant: caladan.DRLow}) {
		spec := harness.RunSpec{
			Scheduler:  s.Name(),
			Seed:       1,
			Cores:      16,
			DurationNs: int64(2 * sim.Millisecond),
			WarmupNs:   int64(500 * sim.Microsecond),
			Apps: []harness.AppSpec{
				{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: 0.8},
				{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
			},
		}
		// AllocsPerRun makes one unmeasured call first; each call needs
		// fresh apps, built outside the measurement.
		cfgs := []sched.Config{spec.Config(), spec.Config()}
		var offered uint64
		allocs := testing.AllocsPerRun(1, func() {
			cfg := cfgs[0]
			cfgs = cfgs[1:]
			res, err := sched.Run(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			offered = 0
			for _, a := range res.Apps {
				offered += a.Offered
			}
		})
		if offered == 0 {
			t.Fatalf("%s: no requests offered", s.Name())
		}
		ceiling, ok := maxAllocsPerRequest[s.Name()]
		if !ok {
			t.Fatalf("%s: no allocation ceiling", s.Name())
		}
		per := allocs / float64(offered)
		t.Logf("%s: %.3f allocations per offered request", s.Name(), per)
		if per > ceiling {
			t.Errorf("%s: %.3f allocations per offered request (%.0f for %d), ceiling %.1f",
				s.Name(), per, allocs, offered, ceiling)
		}
	}
}

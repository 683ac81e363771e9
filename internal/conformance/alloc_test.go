package conformance

import (
	"runtime"
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

// allocCell is the run both allocation gates measure for scheduler name.
func allocCell(name string) harness.RunSpec {
	return harness.RunSpec{
		Scheduler:  name,
		Seed:       1,
		Cores:      16,
		DurationNs: int64(2 * sim.Millisecond),
		WarmupNs:   int64(500 * sim.Microsecond),
		Apps: []harness.AppSpec{
			{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: 0.8},
			{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
		},
	}
}

// offered returns the requests offered over a run.
func offered(res sched.Result) uint64 {
	var n uint64
	for _, a := range res.Apps {
		n += a.Offered
	}
	return n
}

func TestSchedulerAllocsPerRequest(t *testing.T) {
	for _, s := range append(Systems(), caladan.Simulator{Variant: caladan.DRLow}) {
		spec := allocCell(s.Name())
		// AllocsPerRun makes one unmeasured call first; each call needs
		// fresh apps, built outside the measurement.
		cfgs := []sched.Config{spec.Config(), spec.Config()}
		var n uint64
		allocs := testing.AllocsPerRun(1, func() {
			cfg := cfgs[0]
			cfgs = cfgs[1:]
			res, err := sched.Run(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n = offered(res)
		})
		if n == 0 {
			t.Fatalf("%s: no requests offered", s.Name())
		}
		ceiling, ok := maxAllocsPerRequest[s.Name()]
		if !ok {
			t.Fatalf("%s: no allocation ceiling", s.Name())
		}
		per := allocs / float64(n)
		t.Logf("%s: %.3f allocations per offered request", s.Name(), per)
		if per > ceiling {
			t.Errorf("%s: %.3f allocations per offered request (%.0f for %d), ceiling %.1f",
				s.Name(), per, allocs, n, ceiling)
		}
	}
}

// maxBytesPerRequest bounds the heap bytes each model allocates per
// offered request over the same run (set-up included). Linux holds most
// of its requests in backlog to the end of the run, so each of those
// requests keeps its 32-byte slot in the run's store, plus its handle in
// a queue ring that doubles as it grows. Arachne's dispatcher falls as
// far behind, but the requests it cannot reach before the run ends are
// counted, not built (dead-arrival elision). Measured (the same under
// -race, within 0.2 bytes):
//
//	                 bytes per offered request   ceiling
//	VESSEL                     1.1                  2
//	Caladan                    2.2                  4
//	Arachne                    3.6                  5
//	Linux                     44.9                 56
//	Caladan-DR-L               2.0                  4
//
// The ceilings leave 25% on the backlogged model and about 1.5 bytes a
// request on the rest. With a 64-byte request Arachne measured 67.7 and
// Linux 77.1; with every arrival built, Arachne measured 38.1.
var maxBytesPerRequest = map[string]float64{
	"VESSEL":       2,
	"Caladan":      4,
	"Caladan-DR-L": 4,
	"Arachne":      5,
	"Linux":        56,
}

func TestSchedulerBytesPerRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, s := range append(Systems(), caladan.Simulator{Variant: caladan.DRLow}) {
		cfg := allocCell(s.Name()).Config()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sched.Run(s, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		n := offered(res)
		if n == 0 {
			t.Fatalf("%s: no requests offered", s.Name())
		}
		ceiling, ok := maxBytesPerRequest[s.Name()]
		if !ok {
			t.Fatalf("%s: no byte ceiling", s.Name())
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		per := float64(bytes) / float64(n)
		t.Logf("%s: %.1f bytes allocated per offered request", s.Name(), per)
		if per > ceiling {
			t.Errorf("%s: %.1f bytes allocated per offered request (%d for %d), ceiling %.0f",
				s.Name(), per, bytes, n, ceiling)
		}
	}
}

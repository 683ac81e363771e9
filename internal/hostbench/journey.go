package hostbench

import (
	"runtime"
	"runtime/debug"
	"time"

	"vessel/internal/cpu"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/vessel"
	"vessel/internal/workload"
)

// JourneyOverheadPaired measures the journey-on cost as a ratio, not a
// pair of absolute numbers. Each of iters iterations runs the same seeded
// 8-core memcached+linpack colocation twice, obs-only and obs+journey,
// alternating which goes first, and accumulates wall time per variant.
// Both runs in a pair see near-identical machine state (frequency
// scaling, cache residency, co-tenant load), so the overhead is stable
// where two separately run benchmarks are not. sampleEvery > 1 traces
// one request in sampleEvery; values ≤ 1 trace every request.
//
// It returns the journey-on overhead in percent and the mean wall time
// per run of each variant in milliseconds.
func JourneyOverheadPaired(iters, sampleEvery int) (pct, obsMs, journeyMs float64, err error) {
	// GC pacing is pinned for the duration: each timed region runs with
	// the collector off and the previous run's garbage is collected at
	// the untimed barrier below. Allocation cost stays in the measurement;
	// collector scheduling noise (which swamps a 5% signal) does not.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var tObs, tJourney time.Duration
	for i := 0; i < iters; i++ {
		for k := 0; k < 2; k++ {
			mc := workload.NewLApp("memcached", workload.Memcached(), 4e6)
			cfg := sched.Config{
				Seed:     uint64(i + 1),
				Cores:    8,
				Duration: 10 * sim.Millisecond,
				Warmup:   2 * sim.Millisecond,
				Apps:     []*workload.App{mc, workload.Linpack()},
				Costs:    cpu.Default(),
				Obs:      obs.New(0),
			}
			withJourney := (i+k)%2 == 1
			if withJourney {
				cfg.Journey = journey.NewTracer(journey.Config{SampleEvery: sampleEvery})
			}
			// Each timed run starts from a freshly collected heap so one
			// variant's garbage cannot tax the other's timed region.
			runtime.GC()
			start := time.Now()
			if _, err := (vessel.Simulator{}).Run(cfg); err != nil {
				return 0, 0, 0, err
			}
			d := time.Since(start)
			if withJourney {
				tJourney += d
			} else {
				tObs += d
			}
		}
	}
	n := float64(iters)
	return (tJourney.Seconds()/tObs.Seconds() - 1) * 100,
		tObs.Seconds() * 1000 / n, tJourney.Seconds() * 1000 / n, nil
}

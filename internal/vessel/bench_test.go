package vessel

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// benchRun executes one full colocation run, optionally with the
// observability layers attached. mutate adjusts the baseline config (nil
// Obs, nil Journey) for the variant under test — the guard we care about:
// everything off must cost within noise of the pre-obs simulator.
func benchRun(b *testing.B, mutate func(cfg *sched.Config)) {
	b.Helper()
	var totalReqs uint64
	for i := 0; i < b.N; i++ {
		mc := workload.NewLApp("memcached", workload.Memcached(), 4e6)
		cfg := sched.Config{
			Seed:     uint64(i + 1),
			Cores:    8,
			Duration: 10 * sim.Millisecond,
			Warmup:   2 * sim.Millisecond,
			Apps:     []*workload.App{mc, workload.Linpack()},
			Costs:    cpu.Default(),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := Simulator{}.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		a, _ := res.App("memcached")
		totalReqs += a.Completed
	}
	b.ReportMetric(float64(totalReqs)/b.Elapsed().Seconds(), "sim-reqs/s")
}

// BenchmarkSimulatorThroughput measures the layer-2 simulator's host cost:
// one full colocation run per iteration (requests simulated per host
// second are reported as a custom metric). Observability disabled — the
// default configuration and the baseline for the <2% overhead guard
// (see DESIGN.md §10).
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkSimulatorThroughputObs is the same run with span timelines,
// profiling, and the metrics registry enabled (default ring size).
// Compare against BenchmarkSimulatorThroughput to measure the cost of
// turning observability on.
func BenchmarkSimulatorThroughputObs(b *testing.B) {
	benchRun(b, func(cfg *sched.Config) { cfg.Obs = obs.New(0) })
}

// BenchmarkSimulatorThroughputJourney adds request-journey tracing on top
// of the observability layer: every request mints a span tree and the
// flight recorder runs at its default capacity. Compare against
// BenchmarkSimulatorThroughputObs for the absolute cost; cmd/bench gates
// the paired ratio (see DESIGN.md §15).
func BenchmarkSimulatorThroughputJourney(b *testing.B) {
	benchRun(b, func(cfg *sched.Config) {
		cfg.Obs = obs.New(0)
		cfg.Journey = journey.New()
	})
}

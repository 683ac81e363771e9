// Package experiments regenerates every table and figure in the paper's
// evaluation (§6) on the simulated substrate. Each Figure*/Table* function
// runs the corresponding workloads under the relevant schedulers and
// returns a structured result whose String method renders a paper-style
// text table; cmd/experiments prints them and the root bench_test.go wraps
// each in a testing.B benchmark.
//
// Absolute numbers are simulated (2 GHz virtual clock, 40 GB/s memory);
// EXPERIMENTS.md records how each reproduced shape compares with the
// paper's published numbers.
package experiments

import (
	"fmt"
	"strings"

	"vessel/internal/harness"
	"vessel/internal/obs"
	"vessel/internal/sim"
)

// Options configures experiment scale.
type Options struct {
	Seed uint64
	// Quick shrinks durations and sweep density for unit tests; the full
	// runs are used by cmd/experiments and the benchmarks.
	Quick bool
	// Obs, when non-nil, threads the observability layer into every run
	// the experiment performs (span timelines, cycle attribution, and the
	// metrics registry accumulate across the experiment's runs).
	Obs *obs.Observer
	// Exec runs the figure's sweep plan: nil means sequential and
	// uncached. A parallel executor runs independent cells concurrently;
	// results are always folded in plan order, so the rendered figure is
	// byte-identical at any parallelism.
	Exec *harness.Executor
}

// exec resolves the executor. A shared Observer accumulates spans across
// runs, so observability forces a sequential, cache-bypassing executor
// regardless of what Exec asks for.
func (o Options) exec() *harness.Executor {
	if o.Obs != nil {
		return &harness.Executor{Parallel: 1, Observer: o.Obs}
	}
	if o.Exec != nil {
		return o.Exec
	}
	return harness.Sequential()
}

// spec assembles a RunSpec with the experiment-wide defaults.
func (o Options) spec(scheduler string, apps ...harness.AppSpec) harness.RunSpec {
	return harness.RunSpec{
		Scheduler:  scheduler,
		Seed:       o.seed(),
		Cores:      o.cores(),
		DurationNs: int64(o.duration()),
		WarmupNs:   int64(o.warmup()),
		Apps:       apps,
	}
}

// mcSpec declares a memcached app at a fraction of ideal capacity.
func mcSpec(loadFrac float64) harness.AppSpec {
	return harness.AppSpec{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: loadFrac}
}

// siloSpec declares a Silo app at a fraction of ideal capacity.
func siloSpec(loadFrac float64) harness.AppSpec {
	return harness.AppSpec{Name: "silo", Kind: "L", Dist: "silo", LoadFrac: loadFrac}
}

// linpackSpec declares the compute-bound best-effort app
// (workload.Linpack's parameters).
func linpackSpec() harness.AppSpec {
	return harness.AppSpec{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05}
}

// membenchSpec declares the memory-intensive best-effort app
// (workload.Membench's parameters).
func membenchSpec() harness.AppSpec {
	return harness.AppSpec{Name: "membench", Kind: "B", BWDemand: 12.0, MemFrac: 0.7}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// cores is the worker-core count for the colocation experiments
// (normalized metrics are core-count-invariant in shape).
func (o Options) cores() int {
	if o.Quick {
		return 8
	}
	return 16
}

func (o Options) duration() sim.Duration {
	if o.Quick {
		return 20 * sim.Millisecond
	}
	return 60 * sim.Millisecond
}

func (o Options) warmup() sim.Duration {
	if o.Quick {
		return 4 * sim.Millisecond
	}
	return 10 * sim.Millisecond
}

// loadFractions returns the sweep grid.
func (o Options) loadFractions() []float64 {
	if o.Quick {
		return []float64{0.2, 0.5, 0.8}
	}
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// ---- rendering helpers ------------------------------------------------------

// table renders rows of columns with a header, padded.
func table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func us(ns int64) string  { return fmt.Sprintf("%.1f", float64(ns)/1000) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}

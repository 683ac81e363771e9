// Command bench runs the host-time benchmarks, gates them, and writes one
// row per gated measurement to a JSON artifact, BENCH_host.json. Host
// time drifts with the machine, so every hard gate is an allocation count
// or a ratio against a baseline measured in the same process; absolute
// figures gate softly (a warning, not a failure).
//
// The rows:
//
//   - MMU fast path (internal/hostbench bodies): the non-faulting Step
//     and page-sized bulk-read paths allocate nothing; superblock-fused
//     Step is ≥2× the per-instruction fast path, Step ≥2× the slow walk,
//     a warm-TLB check ≥1× the page-table Check, and ReadBytes of a page
//     ≥5× the per-byte reference (fastest of 5 alternated runs each).
//     Whole-machine instructions per wall-second (fastest of 5) has a
//     soft floor of 1e6.
//   - Programs migrating across a machine's cores (core_migrate): ns
//     per instruction and superblock fills per 1,000 blocks, reported
//     without a gate.
//   - Exponential draws: sim.RNG.Exp is ≥1.3× the reference formula's
//     one math.Log per draw, over the same uniforms (fastest of 5
//     alternated runs each), and allocates nothing.
//   - Journey tracing overhead against obs-only runs: ≤20% at full
//     fidelity, and a warning above 5% at 1-in-16 sampling, both with
//     the collector off in the timed runs; the same full-fidelity pairs
//     with the collector on are reported without a gate.
//   - Run harness: fig9mc -quick on the worker pool must produce the same
//     bytes as the sequential run.
//
// Exit status is 1 when a hard gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"vessel/internal/experiments"
	"vessel/internal/harness"
	"vessel/internal/hostbench"
)

// row is one gated measurement.
type row struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Unit is what one op is.
	Unit    string  `json:"unit"`
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is measured for the testing.Benchmark rows only.
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Extra holds a body's custom metrics (testing.B.ReportMetric) by
	// unit.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Gate is the row's bound.
	Gate     string    `json:"gate"`
	Baseline *baseline `json:"baseline,omitempty"`
	// Verdict is "ok", "warn: …" or "FAIL: …".
	Verdict string `json:"verdict"`
}

// baseline is the reference a row is measured against, in the same
// process.
type baseline struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// A gate is a row's bound. judge returns a hard failure or a soft warning
// (empty when the row is within the bound).
type gate struct {
	bound string
	judge func(row) (fail, warn string)
}

// speedup gates baseline ns/op ÷ row ns/op at ≥ want and, with zeroAlloc,
// the row's allocs/op at 0.
func speedup(want float64, zeroAlloc bool) gate {
	bound := fmt.Sprintf("speedup ≥ %gx", want)
	if zeroAlloc {
		bound += ", 0 allocs/op"
	}
	return gate{bound, func(r row) (string, string) {
		if zeroAlloc && *r.AllocsPerOp != 0 {
			return fmt.Sprintf("%d allocs/op on the non-faulting path; want 0", *r.AllocsPerOp), ""
		}
		if x := r.Baseline.NsPerOp / r.NsPerOp; x < want {
			return fmt.Sprintf("speedup %.2fx below %gx (vs %s)", x, want, r.Baseline.Name), ""
		}
		return "", ""
	}}
}

// overhead gates (row ns/op ÷ baseline ns/op − 1) in percent at ≤ maxPct;
// a soft gate only warns.
func overhead(maxPct float64, soft bool) gate {
	bound := fmt.Sprintf("overhead ≤ %g%%", maxPct)
	if soft {
		bound += " (soft)"
	}
	return gate{bound, func(r row) (string, string) {
		if r.NsPerOp <= r.Baseline.NsPerOp*(1+maxPct/100) {
			return "", ""
		}
		msg := fmt.Sprintf("overhead %.2f%% above %g%%", (r.NsPerOp/r.Baseline.NsPerOp-1)*100, maxPct)
		if soft {
			return "", msg
		}
		return msg, ""
	}}
}

// minIPS is a soft floor on instructions per wall-second, where one op is
// one instruction on each of cores cores.
func minIPS(floor float64, cores int) gate {
	return gate{fmt.Sprintf("≥ %g instructions/wall-second (soft)", floor), func(r row) (string, string) {
		if ips := float64(cores) * 1e9 / r.NsPerOp; ips < floor {
			return "", fmt.Sprintf("%.0f instructions/wall-second below %g", ips, floor)
		}
		return "", ""
	}}
}

// reportOnly records a row without bounding it.
var reportOnly = gate{"report only", func(row) (string, string) { return "", "" }}

// identical fails unless the two runs produced the same bytes.
func identical(same bool) gate {
	return gate{"identical output bytes", func(row) (string, string) {
		if !same {
			return "parallel output differs from sequential output", ""
		}
		return "", ""
	}}
}

// judge returns r with g's bound and verdict recorded.
func judge(r row, g gate) row {
	r.Gate = g.bound
	fail, warn := g.judge(r)
	switch {
	case fail != "":
		r.Verdict = "FAIL: " + fail
	case warn != "":
		r.Verdict = "warn: " + warn
	default:
		r.Verdict = "ok"
	}
	return r
}

// fastest keeps each benchmark body's fastest run, and its most
// allocations per op, over repeated testing.Benchmark calls: host noise
// only adds time.
type fastest map[string]*bestRun

type bestRun struct {
	ns     float64
	allocs int64
}

// measure runs fn once under name.
func (f fastest) measure(name string, fn func(*testing.B)) {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	if b, ok := f[name]; ok {
		b.ns, b.allocs = min(b.ns, ns), max(b.allocs, r.AllocsPerOp())
	} else {
		f[name] = &bestRun{ns, r.AllocsPerOp()}
	}
}

// pair returns the row for fast measured against base.
func (f fastest) pair(name, layer, unit, fast, base string, g gate) row {
	r := f[fast]
	return judge(row{Name: name, Layer: layer, Unit: unit, NsPerOp: r.ns, AllocsPerOp: &r.allocs,
		Baseline: &baseline{base, f[base].ns}}, g)
}

// mmuRows runs the MMU bodies and pairs each fast path with its
// baseline. Each pair alternates its fast and baseline bodies reps times
// and every body keeps its fastest run (a body in two pairs, the fastest
// of both); machine_ips keeps the fastest of reps runs.
func mmuRows(reps int) []row {
	best := fastest{}
	pairs := []struct {
		name, fastName, layer, unit string
		fast                        func(*testing.B)
		baseName                    string
		base                        func(*testing.B)
		gate                        gate
	}{
		// Superblock fusion vs the per-instruction fast path it replaced.
		{"core_step_superblock", "core_step", "cpu", "instruction", hostbench.BenchCoreStep,
			"core_step_nosb", hostbench.BenchCoreStepNoSB, speedup(2, true)},
		{"core_step", "core_step", "cpu", "instruction", hostbench.BenchCoreStep,
			"core_step_slow", hostbench.BenchCoreStepSlow, speedup(2, false)},
		{"as_check_hit", "as_check_hit", "mem", "translation", hostbench.BenchASCheckHit,
			"as_check_hit_slow", hostbench.BenchASCheckHitSlow, speedup(1, false)},
		{"read_bytes_4k", "read_bytes_4k", "mem", "4 KiB read", hostbench.BenchReadBytes4K,
			"read_bytes_4k_slow", hostbench.BenchReadBytes4KSlow, speedup(5, true)},
	}
	for _, p := range pairs {
		for i := 0; i < reps; i++ {
			best.measure(p.fastName, p.fast)
			best.measure(p.baseName, p.base)
		}
	}
	for i := 0; i < reps; i++ {
		best.measure("machine_ips", hostbench.BenchMachineIPS)
	}
	var rows []row
	for _, p := range pairs {
		rows = append(rows, best.pair(p.name, p.layer, p.unit, p.fastName, p.baseName, p.gate))
	}
	ips := best["machine_ips"]
	r := row{Name: "machine_ips", Layer: "cpu", Unit: fmt.Sprintf("instruction on each of %d cores", hostbench.MachineCores),
		NsPerOp: ips.ns, AllocsPerOp: &ips.allocs}
	fmt.Printf("whole machine: %.2fM instructions/wall-second\n", float64(hostbench.MachineCores)*1e3/r.NsPerOp)
	return append(rows, judge(r, minIPS(1e6, hostbench.MachineCores)))
}

// coreMigrateRow times programs moving across a machine's cores and
// reports the superblock fills per 1,000 blocks they cost.
func coreMigrateRow() row {
	res := testing.Benchmark(hostbench.BenchCoreMigrate)
	allocs := res.AllocsPerOp()
	r := row{Name: "core_migrate", Layer: "cpu", Unit: "instruction",
		NsPerOp: float64(res.T.Nanoseconds()) / float64(res.N), AllocsPerOp: &allocs, Extra: res.Extra}
	return judge(r, reportOnly)
}

// rngRow pairs sim.RNG.Exp with its reference formula, one math.Log per
// draw. Both bodies spend much of a draw in the PCG step they share, so
// host noise moves the ratio: they alternate reps times and each keeps
// its fastest run.
func rngRow(reps int) row {
	best := fastest{}
	for i := 0; i < reps; i++ {
		best.measure("rng_exp", hostbench.BenchRNGExp)
		best.measure("rng_exp_log", hostbench.BenchRNGExpLog)
	}
	return best.pair("rng_exp", "sim", "draw", "rng_exp", "rng_exp_log", speedup(1.3, true))
}

// journeyRow runs reps repetitions of iters paired journey iterations and
// keeps the repetition with the least overhead, the figure main gates.
func journeyRow(name string, sampleEvery, reps, iters int, gc bool) (row, error) {
	best := row{Name: name, Layer: "journey", Unit: "colocation run"}
	bestPct := 0.0
	for i := 0; i < reps; i++ {
		pct, obsMs, journeyMs, err := hostbench.JourneyOverheadPaired(iters, sampleEvery, gc)
		if err != nil {
			return row{}, err
		}
		fmt.Printf("%-24s rep %d: obs-only %.2f ms, journey %.2f ms, overhead %.2f%%\n", name, i+1, obsMs, journeyMs, pct)
		if i == 0 || pct < bestPct {
			bestPct = pct
			best.NsPerOp = journeyMs * 1e6
			best.Baseline = &baseline{"obs_only", obsMs * 1e6}
		}
	}
	return best, nil
}

// harnessRow renders fig9mc -quick sequentially and on a width-wide
// worker pool.
func harnessRow(width int) (row, bool, error) {
	render := func(w int) (string, time.Duration, error) {
		start := time.Now()
		f, err := experiments.Figure9(experiments.Options{Seed: 42, Quick: true,
			Exec: &harness.Executor{Parallel: w}}, "memcached")
		if err != nil {
			return "", 0, err
		}
		return f.String(), time.Since(start), nil
	}
	seq, seqDur, err := render(1)
	if err != nil {
		return row{}, false, err
	}
	par, parDur, err := render(width)
	if err != nil {
		return row{}, false, err
	}
	return row{
		Name:     "fig9mc_quick_parallel",
		Layer:    "harness",
		Unit:     fmt.Sprintf("fig9mc -quick sweep on %d workers", width),
		NsPerOp:  float64(parDur.Nanoseconds()),
		Baseline: &baseline{"fig9mc_quick_sequential", float64(seqDur.Nanoseconds())},
	}, seq == par, nil
}

func main() {
	out := flag.String("o", "BENCH_host.json", "output JSON path")
	flag.Parse()

	rows := append(mmuRows(5), coreMigrateRow(), rngRow(5))

	// The journey tripwire. Same-seed obs-only and obs+journey runs
	// alternate in one process with GC pinned, and the minimum overhead
	// across 3 repetitions of 16 pairs bounds the true mutator delta. 20%
	// catches accidental hot-path allocations at full fidelity, where
	// every journey is checked and folded at Finish (DESIGN.md §15).
	// FLAKE RISK: repetitions on a 2-vCPU host spread widely, so a slow
	// or noisy runner can trip the gate without a regression; rerun
	// before reading a failure as one. Five runs of this command there
	// gated at 18.1–40.6% (single repetitions 18.1–48.1%), and five of
	// the code before the engine fired events in place, at 8 pairs, at
	// 8.9–24.8% (8.9–38.9%); each side passed once in five.
	full, err := journeyRow("journey_overhead", 0, 3, 16, false)
	if err != nil {
		fail(err)
	}
	// Production-style 1-in-16 sampling skips span-tree construction for
	// 15 of 16 requests. Above the 5% plan target it only warns, so
	// runner noise cannot fail the build.
	sampled, err := journeyRow("journey_overhead_sampled", 16, 3, 16, false)
	if err != nil {
		fail(err)
	}
	// The collector-off rows cannot see what the tracer's retained heap
	// costs the collector; this row times the same pairs with it on.
	withGC, err := journeyRow("journey_overhead_gc", 0, 3, 16, true)
	if err != nil {
		fail(err)
	}
	hr, same, err := harnessRow(harness.DefaultParallel())
	if err != nil {
		fail(err)
	}
	rows = append(rows, judge(full, overhead(20, false)), judge(sampled, overhead(5, true)),
		judge(withGC, reportOnly), judge(hr, identical(same)))
	failed := false
	for _, r := range rows {
		failed = failed || strings.HasPrefix(r.Verdict, "FAIL")
	}

	for _, r := range rows {
		line := fmt.Sprintf("%-26s %12.2f ns/%s", r.Name, r.NsPerOp, r.Unit)
		if r.Baseline != nil {
			line += fmt.Sprintf("  vs %s %.2f ns", r.Baseline.Name, r.Baseline.NsPerOp)
		}
		for unit, v := range r.Extra {
			line += fmt.Sprintf("  %.2f %s", v, unit)
		}
		fmt.Printf("%s  [%s] %s\n", line, r.Gate, r.Verdict)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println("wrote", *out)
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// Command chaosbench demonstrates uProcess crash containment under the
// deterministic fault-injection harness: it runs a park-loop "survivor"
// uProcess twice — once next to a calm neighbour (baseline) and once next
// to a supervised crash-looper plus seeded Uintr tampering (chaos) — and
// compares the survivor's activation-gap latency distribution across the
// two runs. A bounded P999 factor is the containment claim: a crash-looping
// tenant costs its neighbours a slowdown, never a stall, and its region and
// protection key are reclaimed and recycled on every cycle.
//
// With -seeds N the chaos run is swept over N consecutive fault-plan
// seeds on a worker pool (-parallel): per-seed lines print in seed order
// and the per-seed latency histograms and injector counters fold into
// one merged distribution, so the report is byte-identical at any
// -parallel width.
package main

import (
	"flag"
	"fmt"
	"os"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/harness"
	"vessel/internal/harness/cliflags"
	"vessel/internal/mem"
	"vessel/internal/obs"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/uproc"
	"vessel/internal/vessel"
)

var (
	seed     = flag.Uint64("seed", 42, "first fault-plan seed (same seed → identical run)")
	seeds    = flag.Int("seeds", 1, "number of consecutive fault-plan seeds to sweep")
	parallel = cliflags.Parallel()
	steps    = flag.Int("steps", 800_000, "per-core instruction budget")
	quantum  = flag.Int("quantum", 400, "preemption/injection quantum in instructions")
	random   = flag.Int("random", 8, "extra random Uintr drop/delay faults")
	events   = flag.Int("events", 12, "containment-trace tail lines to print")
	traceOut = flag.String("trace", "", "write the chaos run's observability span timeline to this file")
)

func parkLoop(mg *vessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// crasher parks once, then wild-stores into the runtime region: a PKRU
// violation attributed to it, contained by killing only the offender.
func crasher(mg *vessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: cpu.Word(smas.RuntimeBase)})
	a.Emit(cpu.Store{Src: cpu.RDX, Base: cpu.RCX})
	a.Emit(cpu.Halt{})
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

type runResult struct {
	rep     vessel.ChaosReport
	mg      *vessel.Manager
	hist    *stats.Histogram
	summary stats.Summary
}

func run(chaotic bool, planSeed uint64, o *obs.Observer) (runResult, error) {
	mg, err := vessel.NewManager(1, nil)
	if err != nil {
		return runResult{}, err
	}
	mg.AttachObs(o)
	good, err := mg.Launch("good", parkLoop(mg, "good"), 0)
	if err != nil {
		return runResult{}, err
	}
	h := stats.NewHistogram()
	var lastNs float64
	started := false
	mg.Domain.OnActivate = func(core int, th *uproc.Thread) {
		if th.U != good {
			return
		}
		ns := mg.Machine().NsFor(mg.Machine().Core(core).Cycles)
		if started {
			h.Record(int64(ns - lastNs))
		}
		started = true
		lastNs = ns
	}
	if chaotic {
		mg.EnableWatchdog(2000, 8000)
		_, err = mg.Supervise("crash", func() *smas.Program { return crasher(mg, "crash") }, 0,
			vessel.RestartPolicy{Backoff: 1 * sim.Microsecond, MaxBackoff: 8 * sim.Microsecond})
		if err != nil {
			return runResult{}, err
		}
		mg.InjectFaults(faultinject.Plan{
			Seed:         planSeed,
			Random:       *random,
			RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
			RandomCores:  1,
			RandomWindow: 300 * sim.Microsecond,
		})
	} else {
		if _, err = mg.Launch("calm", parkLoop(mg, "calm"), 0); err != nil {
			return runResult{}, err
		}
	}
	if err := mg.Start(0); err != nil {
		return runResult{}, err
	}
	rep, err := mg.RunChaos(vessel.ChaosConfig{Steps: *steps, Quantum: *quantum})
	if err != nil {
		return runResult{}, err
	}
	return runResult{rep: rep, mg: mg, hist: h, summary: h.Summarize()}, nil
}

// runChaosSweep runs the chaos scenario once per seed on the worker pool
// and folds the per-seed results — histograms via Histogram.Merge,
// injector counters via Counters.Merge, report fields by summation — in
// seed order, so the merged output is independent of -parallel.
func runChaosSweep(n int, traceObs *obs.Observer) ([]runResult, error) {
	results := make([]runResult, n)
	exec := &harness.Executor{Parallel: *parallel}
	err := exec.Map(n, func(i int) error {
		var o *obs.Observer
		if i == 0 {
			o = traceObs
		}
		r, err := run(true, *seed+uint64(i), o)
		if err != nil {
			return fmt.Errorf("seed %d: %w", *seed+uint64(i), err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func main() {
	flag.Parse()
	if *seeds < 1 {
		os.Exit(cliflags.UsageErr("chaosbench", fmt.Errorf("-seeds must be ≥ 1 (got %d)", *seeds)))
	}
	fmt.Printf("chaosbench: survivor latency with a crash-looping neighbour (seed=%d, seeds=%d, %d steps @ quantum %d)\n\n",
		*seed, *seeds, *steps, *quantum)

	base, err := run(false, *seed, nil)
	if err != nil {
		cliflags.Fail("chaosbench: baseline", err)
	}
	var traceObs *obs.Observer
	if *traceOut != "" {
		traceObs = obs.New(0)
	}
	chaosRuns, err := runChaosSweep(*seeds, traceObs)
	if err != nil {
		cliflags.Fail("chaosbench: chaos", err)
	}

	// Fold the sweep in seed order: merged histogram, merged injector
	// counters, summed report fields. With -seeds 1 this degenerates to
	// the single-run report.
	merged := stats.NewHistogram()
	counters := stats.NewCounters()
	var rep vessel.ChaosReport
	for _, r := range chaosRuns {
		merged.Merge(r.hist)
		if inj := r.mg.Injector(); inj != nil {
			counters.Merge(inj.Counters)
		}
		rep.Rounds += r.rep.Rounds
		rep.Preemptions += r.rep.Preemptions
		rep.Restarts += r.rep.Restarts
		rep.WatchdogKills += r.rep.WatchdogKills
		rep.ContainedFaults += r.rep.ContainedFaults
		rep.FatalCores = append(rep.FatalCores, r.rep.FatalCores...)
	}
	chaosSummary := merged.Summarize()

	fmt.Printf("survivor activation gaps:\n")
	fmt.Printf("  baseline (calm neighbour):   %s\n", base.summary)
	fmt.Printf("  chaos (crash-loop + tamper): %s\n", chaosSummary)
	if base.summary.P999 > 0 {
		fmt.Printf("  p999 factor: %.2fx\n", float64(chaosSummary.P999)/float64(base.summary.P999))
	}
	if *seeds > 1 {
		fmt.Printf("\nper-seed chaos runs:\n")
		for i, r := range chaosRuns {
			fmt.Printf("  seed %-6d %s  restarts=%d contained=%d\n",
				*seed+uint64(i), r.summary, r.rep.Restarts, r.rep.ContainedFaults)
		}
	}

	fmt.Printf("\nchaos run: rounds=%d preemptions=%d restarts=%d watchdog-kills=%d contained-faults=%d fatal-cores=%v\n",
		rep.Rounds, rep.Preemptions, rep.Restarts, rep.WatchdogKills, rep.ContainedFaults, rep.FatalCores)
	lastChaos := chaosRuns[len(chaosRuns)-1]
	avail := lastChaos.mg.Domain.S.Keys.Available()
	fmt.Printf("pkeys: %d/%d available after %d crash/restart cycles (no leak)\n",
		avail, smas.MaxUProcs, lastChaos.rep.Restarts)

	if len(counters.Names()) > 0 {
		fmt.Printf("\ninjector counters (merged across %d seed(s)):\n", *seeds)
		for _, kv := range counters.Snapshot() {
			fmt.Printf("  %-24s %d\n", kv.Name, kv.Value)
		}
	}

	if *events > 0 {
		fmt.Printf("\ncontainment trace (last %d of %d events, seed %d):\n",
			*events, lastChaos.mg.Events().Len(), *seed+uint64(len(chaosRuns)-1))
		for _, e := range lastChaos.mg.Events().Tail(*events) {
			fmt.Printf("  %s\n", e)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			cliflags.Fail("chaosbench", err)
		}
		if err := traceObs.WriteText(f); err != nil {
			f.Close()
			cliflags.Fail("chaosbench", err)
		}
		f.Close()
		fmt.Printf("\nspan timeline written to %s (%d spans; convert with traceconv)\n",
			*traceOut, traceObs.SpanCount())
	}

	for i, r := range chaosRuns {
		if r.rep.Restarts == 0 || r.rep.ContainedFaults == 0 {
			fmt.Fprintf(os.Stderr, "\nchaosbench: seed %d exercised no containment — tune flags\n", *seed+uint64(i))
			os.Exit(cliflags.ExitFailure)
		}
	}
	fmt.Println("\ncontainment held: the crash loop cost a bounded slowdown, not a stall")
}

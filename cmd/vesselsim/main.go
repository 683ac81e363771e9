// Command vesselsim runs one configurable colocation simulation and prints
// the per-app results and the machine cycle breakdown.
//
// Usage:
//
//	vesselsim [-sched vessel|caladan|caladan-dr-l|caladan-dr-h|linux|arachne]
//	          [-cores N] [-load frac] [-lapp memcached|silo]
//	          [-bapp linpack|membench|none] [-duration ms] [-bwtarget frac]
//	          [-seed N] [-out file]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vessel"
	"vessel/internal/harness/cliflags"
)

// timelineSpans is the span budget of a -timeline run, split evenly over
// the cores' rings (2^17 each at the default 16 cores, ~100 MB in all).
const timelineSpans = 1 << 21

func main() {
	schedName := flag.String("sched", "vessel", "scheduler to run")
	cores := flag.Int("cores", 16, "worker cores in the domain")
	load := flag.Float64("load", 0.5, "L-app offered load as a fraction of ideal capacity")
	lapp := flag.String("lapp", "memcached", "latency-critical app: memcached or silo")
	bapp := flag.String("bapp", "linpack", "best-effort app: linpack, membench or none")
	durMs := flag.Int("duration", 50, "measured duration in milliseconds")
	bwTarget := flag.Float64("bwtarget", 0, "B-app bandwidth budget as a fraction of machine bandwidth (0 = off)")
	seed := cliflags.Seed(1)
	outPath := cliflags.Out()
	timeline := flag.Bool("timeline", false, "render Figure 7-style core timelines of a 100µs window")
	traceOut := flag.String("trace", "", "write the observability span timeline to this file (convert with traceconv)")
	journeyOut := flag.String("journey", "", "write the request-journey export to this file (convert with traceconv) and print the critical-path breakdown")
	journeySample := flag.Int("journeysample", 1, "with -journey: trace 1 in N requests (1 traces all; sampling bounds overhead at high load)")
	flightOut := flag.String("flightdump", "", "with -journey: snapshot the flight recorder at run end and write the black-box dump to this file")
	profile := flag.Bool("profile", false, "print the cycle-attribution profile after the run")
	flag.Parse()

	s, err := vessel.NewScheduler(*schedName)
	if err != nil {
		os.Exit(cliflags.UsageErr("vesselsim", err))
	}
	var dist vessel.ServiceDist
	switch *lapp {
	case "memcached":
		dist = vessel.MemcachedDist()
	case "silo":
		dist = vessel.SiloDist()
	default:
		os.Exit(cliflags.UsageErr("vesselsim", fmt.Errorf("unknown L-app %q", *lapp)))
	}
	rate := *load * vessel.IdealCapacity(*cores, dist)
	apps := []*vessel.App{vessel.NewLApp(*lapp, dist, rate)}
	switch *bapp {
	case "linpack":
		apps = append(apps, vessel.NewLinpack())
	case "membench":
		apps = append(apps, vessel.NewMembench())
	case "none":
	default:
		os.Exit(cliflags.UsageErr("vesselsim", fmt.Errorf("unknown B-app %q", *bapp)))
	}

	cfg := vessel.Config{
		Seed:         *seed,
		Cores:        *cores,
		Duration:     vessel.Duration(*durMs) * vessel.Millisecond,
		Warmup:       vessel.Duration(*durMs) * vessel.Millisecond / 5,
		Apps:         apps,
		Costs:        vessel.DefaultCosts(),
		BWTargetFrac: *bwTarget,
	}
	var o *vessel.Observer
	switch {
	case *timeline:
		o = vessel.NewObserver(timelineSpans / max(*cores, 1))
	case *traceOut != "" || *profile:
		o = vessel.NewObserver(0)
	}
	cfg.Obs = o
	var tr *vessel.JourneyTracer
	if *journeyOut != "" {
		tr = vessel.NewJourneyTracerWith(vessel.JourneyConfig{SampleEvery: *journeySample, Retain: true})
		cfg.Journey = tr
	}
	res, err := s.Run(cfg)
	if err != nil {
		cliflags.Fail("vesselsim", err)
	}

	w, closeOut, err := cliflags.OutWriter(*outPath)
	if err != nil {
		os.Exit(cliflags.UsageErr("vesselsim", err))
	}

	fmt.Fprintf(w, "scheduler: %s   cores: %d   measured: %v\n\n", res.Scheduler, res.Cores, res.Measured)
	for _, a := range res.Apps {
		fmt.Fprintf(w, "%-12s %-6s", a.Name, a.Kind)
		if a.Kind == 0 { // latency-critical
			fmt.Fprintf(w, " tput=%.3f Mops  norm=%.3f  %s\n",
				a.Tput.PerSecond()/1e6, a.NormTput, a.Latency)
		} else {
			fmt.Fprintf(w, " cpu=%.1f core-s-equivalent  norm=%.3f  bw=%.1f GB/s\n",
				float64(a.BUsefulNs)/1e9, a.NormTput, a.AvgBWGBs)
		}
	}
	bd := res.Cycles
	total := float64(bd.Total())
	fmt.Fprintf(w, "\ntotal normalized throughput: %.3f (ideal 1.0)\n", res.TotalNormTput())
	fmt.Fprintf(w, "cycle breakdown: app %.1f%%  runtime %.1f%%  kernel %.1f%%  switch %.1f%%  idle %.1f%%\n",
		100*float64(bd.AppNs)/total, 100*float64(bd.RuntimeNs)/total,
		100*float64(bd.KernelNs)/total, 100*float64(bd.SwitchNs)/total,
		100*float64(bd.IdleNs)/total)
	fmt.Fprintf(w, "switches: %d   preemptions: %d   core reallocations: %d\n",
		res.Switches, res.Preemptions, res.Reallocations)
	if *timeline {
		from := vessel.Time(cfg.Warmup)
		to := from + vessel.Time(100*vessel.Microsecond)
		fmt.Fprintln(w)
		if err := o.WriteTimelines(w, cfg.Cores, from, to, 100); err != nil {
			cliflags.Fail("vesselsim", err)
		}
	}
	if *profile {
		fmt.Fprintln(w)
		fmt.Fprint(w, o.Profile().Table(20))
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, o.WriteText); err != nil {
			cliflags.Fail("vesselsim", err)
		}
		fmt.Fprintf(w, "\nspan timeline written to %s (%d spans, %d overwritten; convert with traceconv)\n",
			*traceOut, o.SpanCount(), o.Overwritten())
	}
	if *journeyOut != "" {
		if err := writeTo(*journeyOut, tr.WriteText); err != nil {
			cliflags.Fail("vesselsim", err)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, tr.Analyze())
		fmt.Fprintf(w, "journey export written to %s (%d journeys, flight-overwritten %d; convert with traceconv)\n",
			*journeyOut, tr.Minted(), tr.Flight().Overwritten())
		if *journeySample > 1 {
			seen, minted := tr.Sampled()
			fmt.Fprintf(w, "journey sampling: 1 in %d — traced %d of %d requests\n",
				*journeySample, minted, seen)
		}
		if *flightOut != "" {
			d := tr.Dump(vessel.Time(cfg.Warmup+cfg.Duration), "vesselsim.end")
			if err := os.WriteFile(*flightOut, []byte(d.Text()), 0o644); err != nil {
				cliflags.Fail("vesselsim", err)
			}
			fmt.Fprintf(w, "flight-recorder dump written to %s (%d events, %d overwritten)\n",
				*flightOut, len(d.Events), d.Overwritten)
		}
	}
	if err := closeOut(); err != nil {
		cliflags.Fail("vesselsim", err)
	}
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package experiments

import (
	"fmt"
	"strings"

	"vessel/internal/obs"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
	"vessel/internal/sim"
	"vessel/internal/vessel"
)

// Fig7 reproduces the execution-timeline comparison at the bottom of
// Figure 7: the same colocated workload under Caladan's two-level policy
// and VESSEL's one-level policy, rendered as per-core occupancy strips.
// Caladan's cores show steal-window polling (r) and kernel reallocation
// blocks (K) between application bursts; VESSEL's cores are filled with
// application work separated by sub-µs switches (s).
type Fig7 struct {
	VesselStrip  string
	CaladanStrip string
	// AppFrac maps system → fraction of the rendered window spent on
	// application work.
	AppFrac map[string]float64
}

// fig7PerCore sizes each Figure 7 run's span rings: VESSEL's busiest core
// records ~7.9k spans over the run, so the default capacity would leave no
// headroom.
const fig7PerCore = 1 << 14

// Figure7 runs both schedulers on the same workload and renders a 100 µs
// window of their observability spans. Each run records into its own
// observer, so the two runs go directly through sched.Run — the executor
// contributes only its worker pool (one run per system, uncached). An
// observer in Options absorbs both runs afterwards, in plan order.
func Figure7(o Options) (Fig7, error) {
	out := Fig7{AppFrac: make(map[string]float64)}
	window := 100 * sim.Microsecond
	systems := []sched.Scheduler{vessel.Simulator{}, caladan.Simulator{Variant: caladan.Plain}}
	type fig7Out struct {
		name  string
		strip string
		frac  float64
		obs   *obs.Observer
	}
	outs := make([]fig7Out, len(systems))
	err := o.exec().Map(len(systems), func(i int) error {
		s := systems[i]
		spec := o.spec(s.Name(), mcSpec(0.5), linpackSpec())
		spec.Cores = 4
		spec.DurationNs = int64(5 * sim.Millisecond)
		spec.WarmupNs = int64(1 * sim.Millisecond)
		cfg := spec.Config()
		cfg.Obs = obs.New(fig7PerCore)
		if _, err := sched.Run(s, cfg); err != nil {
			return err
		}
		from := sim.Time(cfg.Warmup)
		to := from.Add(window)
		var strip strings.Builder
		if err := cfg.Obs.WriteTimelines(&strip, cfg.Cores, from, to, 100); err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		var app, total sim.Duration
		for _, sp := range cfg.Obs.Spans() {
			lo, hi := max(sp.Start, from), min(sp.End, to)
			if !sp.Cat.Activity() || hi <= lo {
				continue
			}
			total += hi.Sub(lo)
			if sp.Cat == obs.CatApp {
				app += hi.Sub(lo)
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(app) / float64(total)
		}
		outs[i] = fig7Out{name: s.Name(), strip: strip.String(), frac: frac, obs: cfg.Obs}
		return nil
	})
	if err != nil {
		return Fig7{}, err
	}
	for _, r := range outs {
		o.Obs.Absorb(r.obs)
		out.AppFrac[r.name] = r.frac
		if r.name == "VESSEL" {
			out.VesselStrip = r.strip
		} else {
			out.CaladanStrip = r.strip
		}
	}
	return out, nil
}

// String renders the exhibit.
func (f Fig7) String() string {
	s := "Figure 7 — execution timelines under the two policies (memcached + Linpack, 4 cores)\n\n"
	s += "Caladan (two-level, conservative):\n" + f.CaladanStrip + "\n"
	s += "VESSEL (one-level, uProcess switches):\n" + f.VesselStrip + "\n"
	s += fmt.Sprintf("application-work fraction of the window: VESSEL %s, Caladan %s\n",
		pct(f.AppFrac["VESSEL"]), pct(f.AppFrac["Caladan"]))
	s += "(the paper's Figure 7: \"the uProcess's scheduler can fill the core with the applications' workloads\")\n"
	return s
}

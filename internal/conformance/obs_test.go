package conformance

import (
	"strings"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/sched"
	"vessel/internal/sim"
)

// obsConfig builds a small mixed L+B run with a fresh observer attached.
func obsConfig(seed uint64) sched.Config {
	cfg := baseScenario(seed).Config()
	cfg.Obs = obs.New(0)
	return cfg
}

func baseScenario(seed uint64) Scenario {
	return Scenario{
		Seed:       seed,
		Cores:      4,
		DurationUs: 20000,
		WarmupUs:   2000,
		Apps: []AppSpec{
			{Name: "mc", Kind: "L", Dist: "memcached", LoadFrac: 0.5},
			{Name: "batch", Kind: "B", BWDemand: 2, MemFrac: 0.2},
		},
	}
}

// TestObsConservationAllSchedulers is the conservation oracle end to end:
// for every scheduler, a run with the observability layer attached must
// charge exactly the cycle breakdown it reports — per category and in
// total.
func TestObsConservationAllSchedulers(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cfg := obsConfig(7)
			res, err := s.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if vs := CheckProfile(s.Name(), cfg.Obs, res); len(vs) > 0 {
				for _, v := range vs {
					t.Error(v)
				}
			}
			if cfg.Obs.SpanCount() == 0 {
				t.Fatal("run recorded no spans")
			}
			// The profile must actually attribute work to the named apps,
			// not just to anonymous buckets.
			prof := cfg.Obs.Profile()
			var named bool
			for core := 0; core < cfg.Cores && !named; core++ {
				if prof.Get(core, "mc", obs.CatApp) > 0 {
					named = true
				}
			}
			if !named {
				t.Error("no app cycles attributed to \"mc\" on any core")
			}
		})
	}
}

// TestActivitySpansTileEveryCore: the activity spans of every core are
// contiguous from time 0 to the end of the run, with no gap and no
// overlap, so each nanosecond of each core is charged to exactly one
// activity. The rings are sized so no span scrolls out.
func TestActivitySpansTileEveryCore(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cfg := baseScenario(7).Config()
			cfg.Obs = obs.New(1 << 20)
			if _, err := s.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if n := cfg.Obs.Overwritten(); n != 0 {
				t.Fatalf("%d spans scrolled out; size the rings up", n)
			}
			end := make([]sim.Time, cfg.Cores) // each core's tiled prefix
			for _, sp := range cfg.Obs.Spans() {
				if !sp.Cat.Activity() {
					continue
				}
				if sp.Start != end[sp.Core] || sp.End <= sp.Start {
					t.Fatalf("core %d: span %v does not extend the tiling of [0, %v)", sp.Core, sp, end[sp.Core])
				}
				end[sp.Core] = sp.End
			}
			for core, e := range end {
				if want := sim.Time(cfg.Warmup + cfg.Duration); e != want {
					t.Errorf("core %d: activity spans tile [0, %v), want [0, %v)", core, e, want)
				}
			}
		})
	}
}

// TestObsTimelineDeterministic: two same-seed runs produce byte-identical
// timelines and collapsed stacks (the layer-2 half of the determinism
// contract; the vessel golden test covers layer-1).
func TestObsTimelineDeterministic(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			render := func() (string, string) {
				cfg := obsConfig(11)
				if _, err := s.Run(cfg); err != nil {
					t.Fatal(err)
				}
				return renderTimeline(t, cfg.Obs), cfg.Obs.Profile().Collapsed()
			}
			tl1, cs1 := render()
			tl2, cs2 := render()
			if tl1 != tl2 {
				t.Error("timelines differ across same-seed runs")
			}
			if cs1 != cs2 {
				t.Error("collapsed stacks differ across same-seed runs")
			}
			if cs1 == "" {
				t.Error("empty collapsed stacks")
			}
		})
	}
}

func renderTimeline(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var b strings.Builder
	if err := o.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

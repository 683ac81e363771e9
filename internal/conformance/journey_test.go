package conformance

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
)

// journeyConfig builds a run config with a fresh journey tracer attached.
func journeyConfig(seed uint64, jc journey.Config) (sched.Config, *journey.Tracer) {
	cfg := baseScenario(seed).Config()
	tr := journey.NewTracer(jc)
	cfg.Journey = tr
	return cfg, tr
}

// TestJourneyConservationAllSchedulers is the journey conservation oracle
// end to end: for every scheduler, every finished journey's segment
// decomposition must sum exactly to its sojourn, with a well-formed span
// tree.
func TestJourneyConservationAllSchedulers(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cfg, tr := journeyConfig(7, journey.Config{})
			res, err := s.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if vs := CheckJourney(s.Name(), tr, res); len(vs) > 0 {
				for _, v := range vs {
					t.Error(v)
				}
			}
			a := tr.Analyze()
			if a.Finished == 0 {
				t.Fatal("run finished no journeys")
			}
			// The decomposition must attribute both queueing and running
			// time: a run where one is identically zero means a seam
			// transition never fired.
			if a.Seg[journey.SegQueue].Count == 0 || a.Seg[journey.SegRun].Count == 0 {
				t.Errorf("degenerate decomposition: queue n=%d run n=%d",
					a.Seg[journey.SegQueue].Count, a.Seg[journey.SegRun].Count)
			}
		})
	}
}

// TestJourneyConservationSweep runs the oracle over a seed sweep of
// generated scenarios on every scheduler — the acceptance gate CI runs.
func TestJourneyConservationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is the CI journey job; -short skips it")
	}
	for seed := uint64(1); seed <= 6; seed++ {
		sc := Generate(seed, true)
		for _, s := range Systems() {
			cfg := sc.Config()
			tr := journey.New()
			cfg.Journey = tr
			res, err := sched.Run(s, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			if vs := CheckJourney(s.Name(), tr, res); len(vs) > 0 {
				for _, v := range vs {
					t.Errorf("seed %d: %s", seed, v)
				}
			}
		}
	}
}

// TestJourneyCanonicalDifferential pins the observe-don't-perturb
// contract: a run's canonical bytes are identical with journey tracing on
// or off, for every scheduler — tracing may never move a timestamp, a
// dispatch decision, or an RNG draw.
func TestJourneyCanonicalDifferential(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				off := baseScenario(seed).Config()
				resOff, err := s.Run(off)
				if err != nil {
					t.Fatal(err)
				}
				on, tr := journeyConfig(seed, journey.Config{})
				resOn, err := s.Run(on)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resOff.Canonical(), resOn.Canonical()) {
					t.Fatalf("seed %d: canonical bytes differ with journey tracing on\n--- off\n%s--- on\n%s",
						seed, resOff.Canonical(), resOn.Canonical())
				}
				if tr.Minted() == 0 {
					t.Fatalf("seed %d: tracer minted nothing", seed)
				}
			}
		})
	}
}

// TestJourneyDeterministicExport: two same-seed runs produce
// byte-identical journey text exports, Chrome traces, and collapsed
// stacks.
func TestJourneyDeterministicExport(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			render := func() (string, string, string) {
				cfg, tr := journeyConfig(11, journey.Config{Retain: true})
				if _, err := s.Run(cfg); err != nil {
					t.Fatal(err)
				}
				var text, chrome, coll bytes.Buffer
				if err := tr.WriteText(&text); err != nil {
					t.Fatal(err)
				}
				if err := tr.WriteChromeTrace(&chrome); err != nil {
					t.Fatal(err)
				}
				if err := tr.WriteCollapsed(&coll); err != nil {
					t.Fatal(err)
				}
				return text.String(), chrome.String(), coll.String()
			}
			t1, c1, f1 := render()
			t2, c2, f2 := render()
			if t1 != t2 {
				t.Error("journey text export differs across same-seed runs")
			}
			if c1 != c2 {
				t.Error("journey Chrome trace differs across same-seed runs")
			}
			if f1 != f2 {
				t.Error("journey collapsed stacks differ across same-seed runs")
			}
			if t1 == "" || c1 == "" || f1 == "" {
				t.Error("empty export")
			}
		})
	}
}

// TestJourneyRetainedMatchesBounded is the retention differential: a
// tracer that keeps every finished journey and one that recycles them
// must report the same summaries, SLO signal, dumps and oracle verdicts
// for the same seeded run, on every scheduler.
func TestJourneyRetainedMatchesBounded(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			type view struct {
				analysis, slo, dumps, verdicts string
			}
			run := func(retain bool) view {
				cfg, tr := journeyConfig(5, journey.Config{
					Retain:    retain,
					FlightCap: 64,
					SLOTarget: 20 * sim.Microsecond,
				})
				res, err := s.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr.Dump(sim.Time(cfg.Warmup+cfg.Duration), "end")
				good, bad := tr.SLOCounts()
				var dumps strings.Builder
				for _, d := range tr.Dumps() {
					dumps.WriteString(d.Text())
				}
				return view{
					analysis: tr.Analyze().String(),
					slo:      fmt.Sprint(good, bad),
					dumps:    dumps.String(),
					verdicts: fmt.Sprint(CheckJourney(s.Name(), tr, res)),
				}
			}
			kept, bounded := run(true), run(false)
			if kept != bounded {
				t.Errorf("retained and bounded tracers disagree:\n--- retained\n%+v\n--- bounded\n%+v", kept, bounded)
			}
			if kept.verdicts != "[]" {
				t.Errorf("oracle violations: %s", kept.verdicts)
			}
		})
	}
}

// journeyGoldenScenario is a seeded colocation small enough to pin every
// journey export byte for byte. At load 0.9 Arachne's backlog keeps many
// journeys in flight at run end, so its goldens pin unfinished journeys
// too.
func journeyGoldenScenario() Scenario {
	return Scenario{
		Seed:       5,
		Cores:      2,
		DurationUs: 150,
		WarmupUs:   50,
		Apps: []AppSpec{
			{Name: "mc", Kind: "L", Dist: "memcached", LoadFrac: 0.9},
			{Name: "batch", Kind: "B", BWDemand: 2, MemFrac: 0.2},
		},
	}
}

// TestJourneyExportGolden pins the journey exports across commits: the
// text, Chrome and collapsed-stack forms, the critical-path analysis, and
// flight-recorder dumps at the default capacity and at a 4-event ring,
// for a VESSEL run and an Arachne run.
func TestJourneyExportGolden(t *testing.T) {
	sc := journeyGoldenScenario()
	end := sim.Time((sc.WarmupUs + sc.DurationUs) * int64(sim.Microsecond))
	for _, s := range Systems() {
		s := s
		if s.Name() != "VESSEL" && s.Name() != "Arachne" {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			run := func(jc journey.Config) *journey.Tracer {
				cfg := sc.Config()
				tr := journey.NewTracer(jc)
				cfg.Journey = tr
				if _, err := s.Run(cfg); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr := run(journey.Config{Retain: true})
			var text, chrome, coll bytes.Buffer
			if err := tr.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := tr.WriteChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			if err := tr.WriteCollapsed(&coll); err != nil {
				t.Fatal(err)
			}
			small := run(journey.Config{FlightCap: 4})
			base := filepath.Join("testdata", "journey", strings.ToLower(s.Name()))
			checkGolden(t, base+".journey", text.Bytes())
			checkGolden(t, base+".chrome.json", chrome.Bytes())
			checkGolden(t, base+".collapsed", coll.Bytes())
			checkGolden(t, base+".analysis", []byte(tr.Analyze().String()))
			checkGolden(t, base+".flight", []byte(tr.Dump(end, "golden.end").Text()))
			checkGolden(t, base+".flight4", []byte(small.Dump(end, "golden.end").Text()))
		})
	}
}

package journey_test

import (
	"testing"

	"vessel/internal/conformance"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
)

// TestJourneyOracleCatchesTamper plants one broken journey per run,
// through the Finish seam, and proves the oracle fires whether or not
// the tracer retains finished journeys: the oracle-of-the-oracle check
// every conformance oracle carries.
func TestJourneyOracleCatchesTamper(t *testing.T) {
	sc := conformance.Scenario{
		Seed: 3, Cores: 4, DurationUs: 4000, WarmupUs: 1000,
		Apps: []conformance.AppSpec{{Name: "mc", Kind: "L", Dist: "memcached", LoadFrac: 0.7}},
	}
	mutations := []struct {
		name  string
		apply func(j *journey.Journey, at sim.Time) bool
	}{
		{"drop-transition", journey.DropTransition},
		{"close-twice", journey.CloseTwice},
		{"bump-segment", func(j *journey.Journey, _ sim.Time) bool {
			j.Segs[journey.SegRun]++
			return true
		}},
	}
	sys := conformance.Systems()[0]
	for _, m := range mutations {
		for _, retain := range []bool{false, true} {
			name := m.name + "/bounded"
			if retain {
				name = m.name + "/retained"
			}
			t.Run(name, func(t *testing.T) {
				tr := journey.NewTracer(journey.Config{Retain: retain})
				var planted uint64
				journey.Tamper(tr, func(j *journey.Journey, at sim.Time) {
					if planted == 0 && m.apply(j, at) {
						planted = j.ID
					}
				})
				cfg := sc.Config()
				cfg.Journey = tr
				res, err := sys.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if planted == 0 {
					t.Fatal("no journey took the mutation")
				}
				vs := conformance.CheckJourney(sys.Name(), tr, res)
				if len(vs) == 0 {
					t.Fatalf("oracle missed the %s planted in journey %d", m.name, planted)
				}
				for _, v := range vs {
					if v.Oracle != "journey-conservation" {
						t.Errorf("unexpected oracle %q: %s", v.Oracle, v)
					}
				}
			})
		}
	}
}

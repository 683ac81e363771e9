package experiments

import (
	"math"
	"testing"

	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
	"vessel/internal/vessel"
)

// TestConclusionsAreSeedRobust re-runs the headline comparison across
// several independent seeds and checks that the paper's qualitative
// conclusions hold for every seed, not just the committed one:
//
//   - VESSEL's total normalized throughput beats Caladan's;
//   - VESSEL's P999 beats Caladan's;
//   - the run-to-run spread of VESSEL's throughput is small (the
//     simulation is well-converged at the configured duration).
func TestConclusionsAreSeedRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed robustness skipped in -short mode")
	}
	seeds := []uint64{11, 23, 57, 101, 997}
	var vNorm, cNorm []float64
	for _, seed := range seeds {
		run := func(s sched.Scheduler) sched.Result {
			o := Options{Seed: seed, Quick: true}
			res, err := s.Run(o.spec(s.Name(), mcSpec(0.5), linpackSpec()).Config())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		v := run(vessel.Simulator{})
		c := run(caladan.Simulator{Variant: caladan.Plain})
		if v.TotalNormTput() <= c.TotalNormTput() {
			t.Errorf("seed %d: VESSEL norm %.3f ≤ Caladan %.3f",
				seed, v.TotalNormTput(), c.TotalNormTput())
		}
		if v.LAppP999() >= c.LAppP999() {
			t.Errorf("seed %d: VESSEL p999 %d ≥ Caladan %d",
				seed, v.LAppP999(), c.LAppP999())
		}
		vNorm = append(vNorm, v.TotalNormTput())
		cNorm = append(cNorm, c.TotalNormTput())
	}
	// Convergence: the coefficient of variation across seeds stays tiny.
	if cv := coeffOfVariation(vNorm); cv > 0.02 {
		t.Errorf("VESSEL norm CV across seeds = %.4f, poorly converged", cv)
	}
	if cv := coeffOfVariation(cNorm); cv > 0.05 {
		t.Errorf("Caladan norm CV across seeds = %.4f, poorly converged", cv)
	}
}

// coeffOfVariation returns the sample standard deviation of xs over its
// mean.
func coeffOfVariation(xs []float64) float64 {
	var mean, ss float64
	for _, x := range xs {
		mean += x / float64(len(xs))
	}
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

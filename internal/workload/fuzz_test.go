package workload_test

import (
	"math"
	"testing"

	"vessel/internal/sim"
	"vessel/internal/workload"
)

// FuzzAppArrivals drives App construction and arrival generation with
// adversarial parameters: non-finite rates, degenerate burst phase means,
// NaN burst factors. The property is total: GenerateArrivals either
// rejects the input with an error or produces a finite, well-formed
// arrival stream — never a panic, hang, or corrupt request.
func FuzzAppArrivals(f *testing.F) {
	f.Add(1_000_000.0, 4.0, int64(50_000), int64(50_000), uint8(0))
	f.Add(8_000_000.0, 1.0, int64(0), int64(0), uint8(1))
	f.Add(0.0, 0.0, int64(0), int64(0), uint8(2))
	f.Add(math.NaN(), math.NaN(), int64(-1), int64(-1), uint8(0))
	f.Add(math.Inf(1), math.Inf(-1), int64(1), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, rate, factor float64, onMean, offMean int64, distSel uint8) {
		// Finite but astronomically high rates are valid inputs that just
		// take forever to enumerate; cap those. Non-finite rates must stay
		// as-is so the rejection path gets exercised.
		if !math.IsInf(rate, 0) && !math.IsNaN(rate) && rate > 1e8 {
			rate = 1e8
		}
		var dist workload.ServiceDist
		switch distSel % 3 {
		case 0:
			dist = workload.Memcached()
		case 1:
			dist = workload.Silo()
		case 2:
			dist = workload.FixedDist{D: 1000}
		}
		app := workload.NewLApp("fuzz", dist, rate)
		if factor != 0 || onMean != 0 || offMean != 0 {
			app.Burst = &workload.Burst{
				OnMean:  sim.Duration(onMean),
				OffMean: sim.Duration(offMean),
				Factor:  factor,
			}
		}
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)
		const until = sim.Time(100_000) // 100 µs window
		err := app.GenerateArrivals(eng, rng, until, func(r *workload.Request) {
			// Service 0 is possible: Exp samples truncate to whole ns.
			if r.Service < 0 || r.Done != 0 {
				t.Fatalf("malformed request: service=%v done=%v", r.Service, r.Done)
			}
			if r.Arrive < 0 || r.Arrive > until {
				t.Fatalf("arrival at %v outside [0,%v]", r.Arrive, until)
			}
		})
		if err != nil {
			return // rejected input: the documented outcome for bad params
		}
		eng.Run(until)
		if app.Offered != uint64(app.Len()) {
			t.Fatalf("offered %d != queued %d (nothing dequeues in this harness)",
				app.Offered, app.Len())
		}
	})
}

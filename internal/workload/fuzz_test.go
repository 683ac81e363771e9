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
// arrival stream — never a panic, hang, or corrupt request. A nonzero
// abandon index abandons that arrival (App.Abandon): no later one is
// built, and Offered still equals a run that builds them all.
func FuzzAppArrivals(f *testing.F) {
	f.Add(1_000_000.0, 4.0, int64(50_000), int64(50_000), uint8(0), uint16(0))
	f.Add(8_000_000.0, 1.0, int64(0), int64(0), uint8(1), uint16(1))
	f.Add(0.0, 0.0, int64(0), int64(0), uint8(2), uint16(0))
	f.Add(math.NaN(), math.NaN(), int64(-1), int64(-1), uint8(0), uint16(3))
	f.Add(math.Inf(1), math.Inf(-1), int64(1), int64(0), uint8(1), uint16(0))
	f.Add(2_000_000.0, 3.0, int64(5_000), int64(2_000), uint8(0), uint16(40))
	f.Fuzz(func(t *testing.T, rate, factor float64, onMean, offMean int64, distSel uint8, abandon uint16) {
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
		const until = sim.Time(100_000) // 100 µs window
		// generate runs the arrival process, abandoning arrival number k
		// (none for k = 0), and returns the app and the arrivals built.
		generate := func(k uint64) (*workload.App, uint64, error) {
			app := workload.NewLApp("fuzz", dist, rate)
			if factor != 0 || onMean != 0 || offMean != 0 {
				app.Burst = &workload.Burst{
					OnMean:  sim.Duration(onMean),
					OffMean: sim.Duration(offMean),
					Factor:  factor,
				}
			}
			eng := sim.NewEngine()
			var built uint64
			err := app.GenerateArrivals(eng, sim.NewRNG(7), until, func(r *workload.Request) {
				// Service 0 is possible: Exp samples truncate to whole ns.
				if r.Service < 0 || r.Done != 0 {
					t.Fatalf("malformed request: service=%v done=%v", r.Service, r.Done)
				}
				if r.Arrive < 0 || r.Arrive > until {
					t.Fatalf("arrival at %v outside [0,%v]", r.Arrive, until)
				}
				if built++; built == k {
					app.Abandon(app.StealNewest())
				}
			})
			if err == nil {
				eng.Run(until)
			}
			return app, built, err
		}
		app, built, err := generate(0)
		if err != nil {
			return // rejected input: the documented outcome for bad params
		}
		if app.Offered != uint64(app.Len()) || built != app.Offered {
			t.Fatalf("offered %d, built %d, queued %d (nothing dequeues in this harness)",
				app.Offered, built, app.Len())
		}
		if abandon == 0 || uint64(abandon) > built {
			return
		}
		cut, built, _ := generate(uint64(abandon))
		if built != uint64(abandon) || cut.Offered != app.Offered || cut.Len() != int(abandon)-1 {
			t.Fatalf("abandoning arrival %d: built %d, offered %d, queued %d; want %d built, %d offered, %d queued",
				abandon, built, cut.Offered, cut.Len(), abandon, app.Offered, abandon-1)
		}
	})
}

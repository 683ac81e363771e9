package hostbench

import (
	"math"
	"testing"

	"vessel/internal/sim"
)

// expMean is the mean the Exp bodies draw at: memcached's 1 µs service.
const expMean = 1000 * sim.Nanosecond

// BenchRNGExp times sim.RNG.Exp, which evaluates most draws without
// math.Log.
func BenchRNGExp(b *testing.B) {
	r := sim.NewRNG(1)
	var sum sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += r.Exp(expMean)
	}
	if sum < 0 { // reading sum keeps the draws live
		b.Fatal("negative exponential draw")
	}
}

// BenchRNGExpLog times the formula Exp is defined by, one math.Log per
// draw, over the same uniforms.
func BenchRNGExpLog(b *testing.B) {
	r := sim.NewRNG(1)
	var sum sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += expLog(r, expMean)
	}
	if sum < 0 {
		b.Fatal("negative exponential draw")
	}
}

// expLog is the reference formula behind one call the compiler may not
// inline, the shape Exp has, so the pair differs only in how ln u is
// evaluated.
//
//go:noinline
func expLog(r *sim.RNG, mean sim.Duration) sim.Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return sim.Duration(-math.Log(u) * float64(mean))
}

package sim

import (
	"math"
	"testing"
)

// expRef is the formula Exp's result is defined by.
func expRef(u float64, mean Duration) Duration { return Duration(-math.Log(u) * float64(mean)) }

// expMeans are the means the exactness checks draw at: small, the
// simulator's usual service times and gaps, large, and either side of
// expFastMaxMean.
var expMeans = []Duration{1, 2, 78, 1000, 3125, 1e5, 1e6, 1 << 40, 1<<40 + 1, 1 << 50}

// TestExpMatchesLogReference checks expFast against the reference formula
// on random draws and at integer boundaries of y = −ln(u)·mean.
func TestExpMatchesLogReference(t *testing.T) {
	t.Run("random", testExpRandom)
	t.Run("boundaries", testExpBoundaries)
}

// testExpRandom draws 10^7 uniforms as Float64 does, a quarter of them shifted right by up to 52 bits so that tiny u, down to
// 2⁻⁵³, are common, and requires every value expFast proves to equal the
// reference formula's. The fast path must carry almost every draw at the
// simulator's means and none above expFastMaxMean.
func testExpRandom(t *testing.T) {
	r := NewRNG(2024)
	const perMean = 1_000_000
	for _, mean := range expMeans {
		draws, fallbacks := 0, 0
		for draws < perMean {
			w := r.Uint64()
			k := w >> 11
			if w&3 == 0 {
				k >>= (w >> 2) % 53
			}
			if k == 0 {
				continue
			}
			u := float64(k) / (1 << 53)
			draws++
			d, ok := expFast(u, mean)
			if !ok {
				fallbacks++
				continue
			}
			if want := expRef(u, mean); d != want {
				t.Fatalf("mean %d, u %b: fast path %d, reference %d", mean, u, d, want)
			}
		}
		switch {
		case mean > expFastMaxMean && fallbacks != draws:
			t.Errorf("mean %d above the cap: %d of %d draws took the fast path", mean, draws-fallbacks, draws)
		case mean <= 1e6 && fallbacks > draws/1000:
			t.Errorf("mean %d: %d of %d draws fell back; the fast path should carry almost all", mean, fallbacks, draws)
		}
	}
}

// testExpBoundaries puts u within ±4 ulps of exp(−k/mean), where
// y = −ln(u)·mean sits within about mean·2⁻⁴⁷ of the integer k: no error
// bound can tell which side of k the reference lands, so expFast must
// decline every such draw, and the reference must land on k − 1 or k.
// Both sides of k must show up among them at
// small means, or the draws missed the boundary.
func testExpBoundaries(t *testing.T) {
	for _, mean := range expMeans {
		m := float64(mean)
		top := int64(36 * m) // exp(−36) > 2⁻⁵³
		var ks []int64
		for k := int64(1); k <= 64 && k <= top; k++ {
			ks = append(ks, k)
		}
		for k := float64(65); k <= float64(top); k *= 1.25 {
			ks = append(ks, int64(k))
		}
		straddled := 0
		for _, k := range ks {
			u0 := math.Exp(-float64(k) / m)
			below, above := false, false
			for j := -4; j <= 4; j++ {
				u := u0
				for s := 0; s < j; s++ {
					u = math.Nextafter(u, 1)
				}
				for s := 0; s > j; s-- {
					u = math.Nextafter(u, 0)
				}
				if u >= 1 || u < 0x1p-53 {
					continue
				}
				if d, ok := expFast(u, mean); ok {
					t.Fatalf("mean %d, k %d, u %b (%+d ulps): fast path returned %d at a boundary", mean, k, u, j, d)
				}
				if mean > expFastMaxMean {
					continue // y's rounding alone spans several integers
				}
				want := expRef(u, mean)
				if want != Duration(k) && want != Duration(k-1) {
					t.Fatalf("mean %d, k %d, u %b: reference %d is not next to the boundary", mean, k, u, want)
				}
				below = below || want == Duration(k-1)
				above = above || want == Duration(k)
			}
			if below && above {
				straddled++
			}
		}
		if mean <= 2 && straddled == 0 {
			t.Errorf("mean %d: no boundary of %d had draws on both sides", mean, len(ks))
		}
		t.Logf("mean %d: %d boundaries, %d straddled", mean, len(ks), straddled)
	}
}

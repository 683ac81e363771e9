package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source used by workload generators and noise
// models. It wraps a PCG generator seeded explicitly so that every experiment
// is reproducible from its seed.
//
// The hot draws (Float64, Exp, Uint64) read the PCG directly, computing
// exactly what rand.Rand would from the same words; NormFloat64 and IntN
// go through a rand.Rand over the same PCG. Every draw advances the one
// stream in the order it is made, so the values are those of a plain
// rand.Rand.
type RNG struct {
	pcg *rand.PCG
	src *rand.Rand // over pcg
}

// NewRNG returns a generator for the given seed. Different logical streams
// (e.g. arrival process vs. service times) should derive distinct seeds via
// RNG.Fork to stay independent.
func NewRNG(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{pcg: pcg, src: rand.New(pcg)}
}

// Fork derives an independent stream from this one, labelled by id.
// Forking is deterministic: the same parent seed and id always produce the
// same child stream.
func (r *RNG) Fork(id uint64) *RNG {
	s := r.pcg.Uint64() ^ (id * 0xbf58476d1ce4e5b9)
	return NewRNG(s)
}

// Float64 returns a uniform value in [0, 1), by rand.Rand.Float64's
// formula.
func (r *RNG) Float64() float64 { return float64(r.pcg.Uint64()<<11>>11) / (1 << 53) }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// IntN returns a uniform value in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Exp returns an exponentially distributed duration with the given mean.
// It is the building block for Poisson arrival processes and memcached-USR
// style service times. The draw is -ln(u)·mean for a uniform u from
// Float64 (redrawn while 0), truncated toward zero to whole nanoseconds,
// so its mean is about mean − 0.5 ns, not mean.
//
// Only the truncated integer matters, so most draws skip math.Log:
// expFast evaluates it from a table and returns the integer only when its
// error bound proves that math.Log would truncate to the same one. The
// rest take the reference formula, so every draw equals
// Duration(-math.Log(u) * float64(mean)) bit for bit.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	if d, ok := expFast(u, mean); ok {
		return d
	}
	return Duration(-math.Log(u) * float64(mean))
}

// expTab splits [1, 2) into 256 intervals by the top 8 mantissa bits. For
// interval i with centre c, invc is 1/c rounded and lninvc is ln(invc),
// so for m in the interval −ln m = lninvc − ln(1+r) with r = m·invc − 1
// and |r| < 2⁻⁹ (Tang, ACM TOMS 16(4), 1990).
var expTab = func() (t [256]struct{ invc, lninvc float64 }) {
	for i := range t {
		invc := 1 / (1 + (float64(i)+0.5)/256)
		t[i].invc, t[i].lninvc = invc, math.Log(invc)
	}
	return t
}()

// expFastMaxMean is the largest mean expFast evaluates. Its margin is
// mean·2⁻⁴⁰, so at larger means no draw could pass the check, and y stays
// below 2⁴⁶, far from int64 overflow.
const expFastMaxMean = 1 << 40

// expFast returns Duration(-math.Log(u) * float64(mean)) for u in
// [2⁻⁵³, 1) and 0 < mean, with ok set, when a table-driven evaluation
// proves which integer that is; otherwise ok is false.
//
// With u = 2^e·m, m in [1, 2): −ln u = −e·ln2 + lninvc − ln(1+r), and a
// degree-4 polynomial stands for ln(1+r). The absolute error of the fast
// −ln u is below 2⁻⁴⁵: the polynomial's truncation |r|⁵/5 < 2⁻⁴⁷, the
// roundings of e·ln2 and of the two sums, each at most half an ulp of 37,
// 2⁻⁴⁸, ln2's own rounding times |e| ≤ 53 (< 2⁻⁴⁹), and the roundings of
// lninvc and r (2⁻⁵³ each). math.Log is within 1 ulp, 2⁻⁴⁷ for
// |ln u| < 37. So y = −ln u·mean and the reference product differ by at
// most mean·2⁻⁴⁴ plus both products' roundings, 2·y·2⁻⁵³ < mean·2⁻⁴⁶
// since y < 37·mean. The margin, mean·2⁻⁴⁰, is over 12 times that, and a
// fused multiply-add the compiler might form only removes roundings. The
// fraction f = y − n is exact, so when f lies in [marg, 1 − marg] the
// reference truncates to n too. About 2·mean·2⁻⁴⁰ of draws miss (one in
// 5·10⁸ at mean 1000).
func expFast(u float64, mean Duration) (Duration, bool) {
	if mean > expFastMaxMean {
		return 0, false
	}
	b := math.Float64bits(u)
	t := &expTab[b>>44&0xff]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*t.invc - 1
	nlnu := float64(1023-int64(b>>52))*math.Ln2 + t.lninvc - (r + r*r*(-0.5+r*(1.0/3-r*0.25)))
	m := float64(mean)
	y := nlnu * m
	n := int64(y)
	f, marg := y-float64(n), m*0x1p-40
	if f < marg || f > 1-marg {
		return 0, false
	}
	return Duration(n), true
}

// LogNormal returns a log-normally distributed duration parameterised by the
// underlying normal's mu and sigma (natural log space). Used for the Silo
// TPC-C service-time model, which the paper characterises by a 20µs median
// and 280µs P999.
func (r *RNG) LogNormal(mu, sigma float64) Duration {
	return Duration(math.Exp(r.src.NormFloat64()*sigma + mu))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

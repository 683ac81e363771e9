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
// style service times.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-math.Log(u) * float64(mean))
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

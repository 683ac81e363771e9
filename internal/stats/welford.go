package stats

import "math"

// MeanVar accumulates a streaming mean and variance using Welford's
// algorithm. The zero value is ready to use.
type MeanVar struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *MeanVar) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *MeanVar) N() uint64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *MeanVar) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (w *MeanVar) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *MeanVar) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge combines two accumulators (parallel Welford).
func (w *MeanVar) Merge(o MeanVar) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Rate tracks a count over a window of virtual time and reports it as an
// operations-per-second rate.
type Rate struct {
	Count   uint64
	Elapsed int64 // nanoseconds
}

// PerSecond returns the rate in operations/second.
func (r Rate) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Count) / (float64(r.Elapsed) / 1e9)
}

// Package stats provides the measurement primitives used by every
// experiment: a log-linear latency histogram (HDR-style), streaming
// mean/variance, and small helpers for reporting distributions the way the
// paper does (Avg, P50, P90, P99, P999).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// subBucketBits controls histogram resolution: each power-of-two bucket is
// split into 2^subBucketBits linear sub-buckets, giving a worst-case
// quantisation error under 1.6%.
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// Histogram records int64 values (typically durations in nanoseconds) in
// log-linear buckets. The zero value is not usable; call NewHistogram.
type Histogram struct {
	// counts runs up to the highest bucket recorded into: buckets past
	// its end hold zero, so a histogram that never records allocates no
	// counts.
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram able to record values in
// [0, 2^62].
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

// grow extends counts to cover bucket index n-1.
func (h *Histogram) grow(n int) {
	h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
}

// index maps a value to its bucket index.
func index(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// magnitude of the leading bit beyond the sub-bucket range
	mag := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) >= subBucketBits
	shift := mag - subBucketBits
	sub := int(v>>uint(shift)) & (subBuckets - 1)
	return (shift+1)*subBuckets + sub
}

// valueAt returns a representative (midpoint) value for bucket i.
func valueAt(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	base := (int64(subBuckets) + int64(sub)) << uint(shift)
	mid := base + (int64(1)<<uint(shift))/2
	return mid
}

// Record adds a value to the histogram. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := index(v)
	if i >= len(h.counts) {
		h.grow(i + 1)
	}
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q in [0,1]. Quantiles are computed
// from bucket midpoints; the exact recorded min and max are returned for
// q=0 and q=1.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := valueAt(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.Max()
}

// Merge adds all recordings from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if n := len(other.counts); n > len(h.counts) {
		h.grow(n)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.counts = h.counts[:0]
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// Summary is the five-number report the paper uses in Table 1.
type Summary struct {
	Count uint64
	Avg   float64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
	Max   int64
}

// Summarize computes the standard report.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Avg:   h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String formats the summary with microsecond units, matching the paper's
// Table 1 presentation.
func (s Summary) String() string {
	us := func(v int64) string { return fmt.Sprintf("%.3f", float64(v)/1000) }
	var b strings.Builder
	fmt.Fprintf(&b, "avg=%.3fµs p50=%sµs p90=%sµs p99=%sµs p999=%sµs (n=%d)",
		s.Avg/1000, us(s.P50), us(s.P90), us(s.P99), us(s.P999), s.Count)
	return b.String()
}

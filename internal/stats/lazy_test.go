package stats

import (
	"runtime"
	"testing"
)

// eagerHistogram returns the reference the lazily sized Histogram is
// checked against: the same buckets and code, with counts sized for every
// magnitude up front as NewHistogram once did.
func eagerHistogram() *Histogram {
	h := NewHistogram()
	h.counts = make([]uint64, 64*subBuckets)
	return h
}

// sameHistogram fails t unless got and want report the same count, sum,
// extremes, summary and quantiles on a fine grid.
func sameHistogram(t *testing.T, what string, got, want *Histogram) {
	t.Helper()
	if g, w := got.Summarize(), want.Summarize(); g != w {
		t.Fatalf("%s: summary %+v, eager reference %+v", what, g, w)
	}
	if got.Min() != want.Min() || got.Mean() != want.Mean() {
		t.Fatalf("%s: min/mean %d/%v, eager reference %d/%v", what, got.Min(), got.Mean(), want.Min(), want.Mean())
	}
	for q := -0.01; q <= 1.01; q += 0.01 {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %d, eager reference %d", what, q, g, w)
		}
	}
}

// FuzzHistogramLazyMatchesEager: lazily sized histograms report exactly
// what eagerly sized ones do, recorded directly, merged in either order
// across unequal lengths (into empty, shorter and longer histograms), and
// after a Reset.
func FuzzHistogramLazyMatchesEager(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 1, 128, 7})
	f.Add([]byte{9, 200, 3, 77, 255, 0, 64, 65, 127, 128, 1, 250, 33})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const parts = 3
		var lazy, eager [parts]*Histogram
		for k := range lazy {
			lazy[k], eager[k] = NewHistogram(), eagerHistogram()
		}
		directL, directE := NewHistogram(), eagerHistogram()
		for i, b := range raw {
			// Each part spans different magnitudes, so their counts
			// grow to different lengths.
			k := i % parts
			v := int64(b) << (uint(i%7+k) * 8)
			lazy[k].Record(v)
			eager[k].Record(v)
			directL.Record(v)
			directE.Record(v)
		}
		for k := range lazy {
			sameHistogram(t, "part", lazy[k], eager[k])
		}
		sameHistogram(t, "direct", directL, directE)

		// Merge every part, forward and backward, into fresh histograms,
		// and into a copy of the first part (longer or shorter than each
		// of the others).
		fwdL, fwdE := NewHistogram(), eagerHistogram()
		bwdL, bwdE := NewHistogram(), eagerHistogram()
		for k := range lazy {
			fwdL.Merge(lazy[k])
			fwdE.Merge(eager[k])
			bwdL.Merge(lazy[parts-1-k])
			bwdE.Merge(eager[parts-1-k])
		}
		sameHistogram(t, "merged forward", fwdL, fwdE)
		sameHistogram(t, "merged backward", bwdL, bwdE)
		intoL, intoE := NewHistogram(), eagerHistogram()
		intoL.Merge(lazy[0])
		intoE.Merge(eager[0])
		for k := 1; k < parts; k++ {
			intoL.Merge(lazy[k])
			intoE.Merge(eager[k])
		}
		lazy[2].Merge(lazy[1]) // a lazy target of either length
		eager[2].Merge(eager[1])
		sameHistogram(t, "merged into a part", lazy[2], eager[2])
		sameHistogram(t, "merged into a copy", intoL, intoE)

		// Reset keeps no stale counts: re-recording part of the stream
		// reads like a fresh histogram.
		directL.Reset()
		fresh := eagerHistogram()
		for i, b := range raw {
			if i%2 == 0 {
				v := int64(b) << uint(i%5*6)
				directL.Record(v)
				fresh.Record(v)
			}
		}
		sameHistogram(t, "after Reset", directL, fresh)
	})
}

// TestNewHistogramAllocatesNoCounts: a new histogram is one small object.
// Eagerly sized, each one carried 32 KB of counts, and a run built one per
// app, including best-effort apps that never record into theirs.
func TestNewHistogramAllocatesNoCounts(t *testing.T) {
	var sink *Histogram
	if allocs := testing.AllocsPerRun(100, func() { sink = NewHistogram() }); allocs != 1 {
		t.Fatalf("NewHistogram allocated %.0f times, want 1", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = NewHistogram()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Fatalf("NewHistogram allocated %d bytes per call, want one small struct", per)
	}
	// Recording grows counts only to the bucket of the largest value: a
	// microsecond-scale latency needs a fraction of the full range.
	sink.Record(1000)
	if n := len(sink.counts); n > 64*subBuckets/8 {
		t.Fatalf("recording 1 µs grew counts to %d buckets", n)
	}
}

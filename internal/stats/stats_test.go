package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if p := h.Quantile(0.5); p < 48 || p > 53 {
		t.Fatalf("p50 = %d, want ~50", p)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against exact quantiles on a big random sample: log-linear buckets
	// promise <2% relative error.
	r := rand.New(rand.NewPCG(1, 2))
	h := NewHistogram()
	vals := make([]int64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(math.Exp(r.NormFloat64()*1.5 + 10)) // lognormal, ~22k median
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.02 {
			t.Errorf("q=%v: got %d, exact %d, relErr %.4f", q, got, exact, relErr)
		}
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative values should clamp to 0, min=%d", h.Min())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Max() != 1999 || a.Min() != 0 {
		t.Fatalf("min/max after merge = %d/%d", a.Min(), a.Max())
	}
	if p := a.Quantile(0.5); p < 970 || p > 1030 {
		t.Fatalf("p50 after merge = %d", p)
	}
	a.Merge(nil) // no-op
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("record after reset broken")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileBoundsProperty(t *testing.T) {
	// Quantiles must always lie within [min, max].
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		for _, q := range []float64{0.01, 0.5, 0.999} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(161) // ns, the paper's VESSEL average
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	str := s.String()
	if str == "" {
		t.Fatal("empty summary string")
	}
}

func TestRate(t *testing.T) {
	r := Rate{Count: 16_000_000, Elapsed: 1e9}
	if got := r.PerSecond(); math.Abs(got-16e6) > 1e-3 {
		t.Fatalf("rate = %v/s", got)
	}
	zero := Rate{Count: 5, Elapsed: 0}
	if zero.PerSecond() != 0 {
		t.Fatal("zero elapsed should give zero rate")
	}
}

package stats

import "testing"

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%100000) + 1)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 1_000_000; i++ {
		h.Record(i % 500000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.999)
	}
}

func BenchmarkHistogramMerge(b *testing.B) {
	a, c := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100000; i++ {
		c.Record(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

package journey

import "testing"

func TestSamplingMintsOneInN(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4})
	var live int
	for i := 0; i < 40; i++ {
		j := tr.Mint("req", us(int64(i)))
		if j != nil {
			live++
			// Sampled journeys behave normally end to end.
			j.To(SegRun, us(int64(i)+1))
			j.Finish(us(int64(i) + 2))
		} else {
			// Unsampled: nil is the no-op journey, safe to drive.
			j.To(SegRun, us(int64(i)))
			j.Finish(us(int64(i)))
		}
	}
	if live != 10 {
		t.Fatalf("minted %d of 40, want 10", live)
	}
	seen, minted := tr.Sampled()
	if seen != 40 || minted != 10 {
		t.Fatalf("Sampled() = %d/%d, want 40/10", seen, minted)
	}
	a := tr.Analyze()
	if a.Finished != 10 || a.Unfinished != 0 {
		t.Fatalf("analysis finished=%d unfinished=%d", a.Finished, a.Unfinished)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	run := func() []uint64 {
		tr := NewTracer(Config{SampleEvery: 7})
		var ids []uint64
		for i := 0; i < 100; i++ {
			if j := tr.Mint("req", us(int64(i))); j != nil {
				ids = append(ids, uint64(i))
			}
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different sample counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	// The first request is always sampled (so short runs are never blind).
	if a[0] != 0 {
		t.Fatalf("first request not sampled: first=%d", a[0])
	}
}

func TestSamplingOffByDefault(t *testing.T) {
	for _, n := range []int{0, 1, -3} {
		tr := NewTracer(Config{SampleEvery: n})
		for i := 0; i < 5; i++ {
			if tr.Mint("req", us(int64(i))) == nil {
				t.Fatalf("SampleEvery=%d dropped a request", n)
			}
		}
	}
}

func TestSamplingKeepsIDsDense(t *testing.T) {
	// The oracle's dense-ID audit needs IDs 1..minted under sampling too:
	// skipped requests consume no ID.
	tr := NewTracer(Config{SampleEvery: 3})
	var got []uint64
	for i := 0; i < 9; i++ {
		if j := tr.Mint("req", us(int64(i))); j != nil {
			got = append(got, j.ID)
		}
	}
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

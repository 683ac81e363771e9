package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/sim"
)

func quickPlan() Plan {
	return Axes{
		Schedulers: []string{"VESSEL", "Caladan", "Linux"},
		Loads:      []float64{0.2, 0.5},
		Build: func(scheduler string, load float64, _ uint64) (RunSpec, bool) {
			return RunSpec{
				Scheduler:  scheduler,
				Seed:       7,
				Cores:      4,
				DurationNs: int64(2 * sim.Millisecond),
				WarmupNs:   int64(500 * sim.Microsecond),
				Apps: []AppSpec{
					{Name: "mc", Kind: "L", Dist: "memcached", LoadFrac: load},
					{Name: "bg", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
				},
			}, true
		},
	}.Plan()
}

// TestRunPlanParallelDeterminism: the same plan at Parallel 1 and
// Parallel 8 must produce identical canonical result bytes in identical
// plan order — the core determinism contract of the executor.
func TestRunPlanParallelDeterminism(t *testing.T) {
	plan := quickPlan()
	seq, err := Sequential().RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Executor{Parallel: 8}).RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != plan.Len() || len(par) != plan.Len() {
		t.Fatalf("lengths: seq=%d par=%d plan=%d", len(seq), len(par), plan.Len())
	}
	for i := range seq {
		if seq[i].Hash != par[i].Hash {
			t.Fatalf("cell %d: hash %s vs %s", i, seq[i].Hash, par[i].Hash)
		}
		if !bytes.Equal(seq[i].Result.Canonical(), par[i].Result.Canonical()) {
			t.Fatalf("cell %d (%s): canonical bytes diverge between -parallel 1 and -parallel 8",
				i, plan.Specs[i].Scheduler)
		}
	}
}

// TestMapLowestIndexErrorWins: when several cells fail, Map must report
// the lowest-index error regardless of completion order, so failure
// output is as deterministic as success output.
func TestMapLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		e := &Executor{Parallel: workers}
		err := e.Map(16, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("parallel=%d: err = %v, want cell 1's", workers, err)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	calls := 0
	if err := Sequential().Map(0, func(int) error { calls++; return nil }); err != nil || calls != 0 {
		t.Fatalf("n=0: err=%v calls=%d", err, calls)
	}
	e := &Executor{Parallel: -3} // resolves to DefaultParallel
	seen := make([]bool, 5)
	if err := e.Map(5, func(i int) error { seen[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never ran", i)
		}
	}
}

// TestCacheHitAndInvalidation: a warm cache must serve every unchanged
// cell; changing any axis must miss.
func TestCacheHitAndInvalidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := quickPlan()

	cold, err := (&Executor{Parallel: 4, Cache: cache}).RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range cold {
		if rr.Cached {
			t.Fatalf("cold cell %d served from cache", i)
		}
	}
	hits, misses, puts := cache.Stats()
	if hits != 0 || misses != int64(plan.Len()) || puts != int64(plan.Len()) {
		t.Fatalf("cold stats: hits=%d misses=%d puts=%d", hits, misses, puts)
	}

	warm, err := (&Executor{Parallel: 4, Cache: cache}).RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range warm {
		if !rr.Cached {
			t.Fatalf("warm cell %d missed the cache", i)
		}
		if !bytes.Equal(warm[i].Result.Canonical(), cold[i].Result.Canonical()) {
			t.Fatalf("cell %d: cached result differs from computed result", i)
		}
	}

	// Nudge one axis: only that cell misses.
	changed := plan
	changed.Specs = append([]RunSpec(nil), plan.Specs...)
	changed.Specs[3].Seed++
	rerun, err := (&Executor{Parallel: 1, Cache: cache}).RunPlan(changed)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range rerun {
		if want := i != 3; rr.Cached != want {
			t.Fatalf("cell %d after axis change: cached=%v want %v", i, rr.Cached, want)
		}
	}
}

// TestRunOneObsSkipsCache: an executor with an Observer attaches it to
// every run and never serves or stores one in its cache — a cached result
// records no spans.
func TestRunOneObsSkipsCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := quickPlan().Specs[0]
	if _, err := (&Executor{Parallel: 1, Cache: cache}).RunOne(spec); err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	rr, err := (&Executor{Parallel: 1, Cache: cache, Observer: o}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Cached {
		t.Fatal("observed run served from cache")
	}
	if _, _, puts := cache.Stats(); puts != 1 {
		t.Fatalf("observed run stored in cache (puts=%d)", puts)
	}
	if o.SpanCount() == 0 {
		t.Fatal("observer not attached to the run")
	}
}

func TestRunPlanUnknownScheduler(t *testing.T) {
	plan := quickPlan()
	plan.Specs[2].Scheduler = "bogus"
	if _, err := Sequential().RunPlan(plan); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestCachedJSON(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Parallel: 1, Cache: cache}
	type key struct {
		N int `json:"n"`
	}
	calls := 0
	compute := func() (int, error) { calls++; return 99, nil }
	v, cached, err := CachedJSON(e, "t", 1, key{4}, compute)
	if err != nil || v != 99 || cached || calls != 1 {
		t.Fatalf("cold: v=%d cached=%v calls=%d err=%v", v, cached, calls, err)
	}
	v, cached, err = CachedJSON(e, "t", 1, key{4}, compute)
	if err != nil || v != 99 || !cached || calls != 1 {
		t.Fatalf("warm: v=%d cached=%v calls=%d err=%v", v, cached, calls, err)
	}
	// A different epoch is a different cell.
	_, cached, err = CachedJSON(e, "t", 2, key{4}, compute)
	if err != nil || cached || calls != 2 {
		t.Fatalf("epoch bump: cached=%v calls=%d err=%v", cached, calls, err)
	}
	// Without a cache, compute runs every time.
	plain := Sequential()
	_, cached, err = CachedJSON(plain, "t", 1, key{4}, compute)
	if err != nil || cached || calls != 3 {
		t.Fatalf("no cache: cached=%v calls=%d err=%v", cached, calls, err)
	}
}

package harness

import (
	"runtime"
	"sync"

	"vessel/internal/obs"
	"vessel/internal/sched"
)

// DefaultParallel returns the default worker count:
// min(GOMAXPROCS, host cores), at least 1.
func DefaultParallel() int {
	p := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < p {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Executor runs plans. The zero value runs sequentially with no cache; it
// is safe for concurrent use by multiple goroutines once configured.
type Executor struct {
	// Parallel bounds concurrent runs; values below 1 mean DefaultParallel.
	Parallel int
	// Cache, when non-nil, serves and stores results content-addressed by
	// spec hash. Cached results bypass scheduler execution entirely —
	// including post-run hooks — so oracle-bearing sweeps (conformance)
	// run uncached.
	Cache *Cache
	// Observer, when non-nil, attaches to every run the executor makes.
	// It accumulates spans across runs, so it forces sequential execution
	// (see parallel) to keep span order deterministic, and it bypasses the
	// cache: a cached result records no spans.
	Observer *obs.Observer
}

// Sequential returns an executor that runs one spec at a time, uncached.
func Sequential() *Executor { return &Executor{Parallel: 1} }

// NewExecutor builds an executor with the given worker-pool width
// (≤ 0 selects DefaultParallel) backed by a content-addressed cache at
// cacheDir (empty disables caching).
func NewExecutor(parallel int, cacheDir string) (*Executor, error) {
	e := &Executor{Parallel: parallel}
	if cacheDir != "" {
		c, err := OpenCache(cacheDir)
		if err != nil {
			return nil, err
		}
		e.Cache = c
	}
	return e, nil
}

// parallel resolves the effective worker count. A shared Observer pins it
// to 1: spans from concurrent runs would interleave nondeterministically
// in the single span ring.
func (e *Executor) parallel() int {
	if e.Observer != nil {
		return 1
	}
	p := e.Parallel
	if p < 1 {
		p = DefaultParallel()
	}
	return p
}

// Map calls fn(0..n-1) on the executor's worker pool and returns the
// error of the lowest failing index, or nil. Every index runs regardless
// of other indices' failures, so partial results land in caller-owned
// slots deterministically; the lowest-index error rule makes the reported
// error independent of goroutine interleaving.
func (e *Executor) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.parallel()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunResult is one executed (or cache-served) spec.
type RunResult struct {
	Spec   RunSpec
	Hash   string
	Result sched.Result
	Cached bool
}

// RunOne executes a single spec: cache lookup (unless the executor has
// an Observer), scheduler run through sched.Run, cache store.
func (e *Executor) RunOne(spec RunSpec) (RunResult, error) {
	rr := RunResult{Spec: spec, Hash: spec.Hash()}
	cacheable := e.Cache != nil && e.Observer == nil
	if cacheable && e.Cache.Get(rr.Hash, &rr.Result) {
		rr.Cached = true
		return rr, nil
	}
	s, err := SchedulerByName(spec.Scheduler)
	if err != nil {
		return rr, err
	}
	cfg := spec.Config()
	cfg.Obs = e.Observer
	rr.Result, err = sched.Run(s, cfg)
	if err != nil {
		return rr, err
	}
	if cacheable {
		if err := e.Cache.Put(rr.Hash, "runspec", spec, rr.Result); err != nil {
			return rr, err
		}
	}
	return rr, nil
}

// RunPlan executes every spec in the plan — concurrently up to the worker
// bound — and returns results indexed in plan order. Each worker writes
// only its own slot, so the returned slice (and anything folded from it in
// order) is byte-identical at any parallelism. On error, the error of the
// lowest-index failing spec is returned.
func (e *Executor) RunPlan(p Plan) ([]RunResult, error) {
	results := make([]RunResult, len(p.Specs))
	err := e.Map(len(p.Specs), func(i int) error {
		rr, err := e.RunOne(p.Specs[i])
		results[i] = rr
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// CachedJSON serves an arbitrary JSON-able computation through the
// executor's cache: adaptive cells (a binary search, a measured table)
// that are deterministic functions of their key but are not single
// scheduler runs. Returns the value and whether it was served from cache.
func CachedJSON[T any](e *Executor, kind string, epoch int, key any, compute func() (T, error)) (T, bool, error) {
	var v T
	if e.Cache == nil {
		v, err := compute()
		return v, false, err
	}
	h := HashKey(kind, epoch, key)
	if e.Cache.Get(h, &v) {
		return v, true, nil
	}
	v, err := compute()
	if err != nil {
		return v, false, err
	}
	if err := e.Cache.Put(h, kind, key, v); err != nil {
		return v, false, err
	}
	return v, false, nil
}

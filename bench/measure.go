package main

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced passes: what a user running the
// workload sees. Each is the median over the timed passes.
var endToEnd = []metricDef{
	{"wall_s", "s"},        // host seconds per pass
	{"work_per_s", "1/s"},  // simulated requests or switches per host second
	{"setup_s", "s"},       // building one pass's inputs
	{"alloc_mb", "MB"},     // host bytes allocated per pass
	{"live_heap_mb", "MB"}, // live heap after GC at the end of setup
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them: the probes time each layer in isolation, and the op metrics come
// from the spans around the workload's unit of work.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns"},
	{"workload.ns_per_arrival", "ns"},
	{"stats.ns_per_record", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"uproc.ns_per_park", "ns"},
	{"vpkey.ns_per_switch", "ns"},
	{"op.p50_us", "us"},
	{"op.tail_us", "us"},
	{"op.alloc_kb", "KB"},
	{"op.ns_per_work", "ns"},
	{"op.work", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.uncovered_frac", "frac"},
}

type options struct {
	seed    uint64
	seconds float64 // measuring budget per workload
	trace   bool
	short   bool
	// golden, when non-nil, holds the digests every pass must reproduce.
	golden map[string]string
}

// report is everything measured on one workload.
type report struct {
	w                 *workload
	untraced, traced  int // timed passes of each kind
	attempted, failed int
	problems          []string
	e2e               map[string][]float64 // untraced passes
	host              map[string][]float64 // their unscaled times, and reference times
	tracedWall        []float64
	layer             map[string]float64 // perLayer values
	tailLabel         string             // which percentile op.tail_us is
	opSamples         int
	detail            layerSet // the workload's own layer metrics
	tr                *tracer
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// minPasses is the fewest timed passes a run makes, whatever its budget:
// enough for quartiles and for a pass-to-pass digest comparison. A traced
// run needs this many traced and untraced passes each, less one.
const minPasses = 3

// Each pass times its own set-up and then discarded extra ones until
// setupBudget is spent, at least one extra: set-ups of a few microseconds
// need thousands of samples for a steady median, and the cluster's 0.1 s
// boot gets one extra.
const setupBudget = 50 * time.Millisecond

// measure runs one untimed warm pass, then timed passes until the budget
// is spent. In a traced run, untraced and traced passes alternate, so the
// tracing overhead is measured pass against pass in one process.
func measure(w *workload, o options) *report {
	r := &report{w: w, e2e: map[string][]float64{}, host: map[string][]float64{}, layer: map[string]float64{}, detail: layerSet{}}
	if o.trace {
		r.tr = newTracer()
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var warmDigest [32]byte
	goldenOK := true
	var start time.Time
	var last time.Duration
	var uncovered, tracedWork float64
	for i := 0; ; i++ {
		if i > 0 {
			done := r.untraced >= minPasses
			if o.trace {
				done = r.untraced >= minPasses-1 && r.traced >= minPasses-1
			}
			if done && time.Since(start)+last > budget {
				break
			}
		}
		iter := time.Now()
		if i == 1 {
			start = iter
		}
		var tr *tracer
		if o.trace && i > 0 && i%2 == 0 {
			tr = r.tr
			tr.pass = i
		}

		runtime.GC()
		c := newClock(tr)
		at := tr.begin("setup "+w.name, false)
		t0 := time.Now()
		p, err := w.setup(o.seed, o.short, tr)
		setup := time.Since(t0)
		tr.end(at)
		if err != nil {
			r.attempted++
			r.failed++
			r.problem("pass %d: setup: %v", i, err)
			return r
		}
		setups := []float64{setup.Seconds()}
		for spent := setup; len(setups) < 2 || spent < setupBudget; {
			t := time.Now()
			if _, err := w.setup(o.seed, o.short, nil); err != nil {
				r.attempted++
				r.failed++
				r.problem("pass %d: extra setup: %v", i, err)
				return r
			}
			d := time.Since(t)
			spent += d
			setups = append(setups, d.Seconds())
		}
		// Taken before the GC below, so the samples are garbage by the time
		// live_heap_mb is read.
		setup = time.Duration(median(setups) * float64(time.Second))
		setupScaled := c.scale(setup)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap, alloc0 := ms.HeapAlloc, ms.TotalAlloc

		root := tr.begin("pass "+w.name, false)
		p.run(c)
		tr.end(root)
		wall := c.scaled

		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc - alloc0
		out := p.check(tr)

		switch {
		case i == 0:
			warmDigest = out.digest
			if o.golden != nil {
				if want := o.golden[w.name]; want != hex.EncodeToString(out.digest[:]) {
					goldenOK = false
					r.problem("digest %x differs from golden %q", out.digest, want)
				}
			}
		case out.digest != warmDigest:
			out.failed = out.ops
			r.problem("pass %d: digest %x differs from the warm pass's %x", i, out.digest, warmDigest)
		}
		if !goldenOK {
			out.failed = out.ops
		}
		r.attempted += out.ops
		r.failed += out.failed
		for _, msg := range out.problems {
			r.problem("pass %d: %s", i, msg)
		}
		last = time.Since(iter)
		switch {
		case i == 0:
			continue
		case tr != nil:
			r.traced++
			r.tracedWall = append(r.tracedWall, wall)
			uncovered = max(uncovered, tr.uncovered(root))
			tracedWork += out.work
			r.detail.merge(out.layer)
		default:
			r.untraced++
			r.e2e["wall_s"] = append(r.e2e["wall_s"], wall)
			r.e2e["work_per_s"] = append(r.e2e["work_per_s"], out.work/wall)
			r.e2e["setup_s"] = append(r.e2e["setup_s"], setupScaled)
			r.e2e["alloc_mb"] = append(r.e2e["alloc_mb"], float64(alloc)/1e6)
			r.e2e["live_heap_mb"] = append(r.e2e["live_heap_mb"], float64(heap)/1e6)
			r.host["wall_s"] = append(r.host["wall_s"], c.wall.Seconds())
			r.host["setup_s"] = append(r.host["setup_s"], setup.Seconds())
			r.host["reference_ms"] = append(r.host["reference_ms"], median(c.refs)*1e3)
		}
	}
	if o.trace {
		r.layerMetrics(uncovered, tracedWork)
	}
	return r
}

// layerMetrics derives the perLayer values from the traced passes' op
// spans, then runs the probes.
func (r *report) layerMetrics(uncovered, work float64) {
	var durs []float64
	var ns, alloc float64
	for _, s := range r.tr.spans {
		if s.op {
			durs = append(durs, float64(s.dur().Nanoseconds())/1e3)
			ns += float64(s.dur().Nanoseconds())
			alloc += float64(s.allocB)
		}
	}
	r.opSamples = len(durs)
	var tailV float64
	r.tailLabel, tailV = tail(durs)
	r.layer["op.p50_us"] = median(durs)
	r.layer["op.tail_us"] = tailV
	if n := float64(len(durs)); n > 0 {
		r.layer["op.alloc_kb"] = alloc / n / 1e3
		r.layer["op.work"] = work / n
	}
	if work > 0 {
		r.layer["op.ns_per_work"] = ns / work
	}
	r.layer["trace.overhead_frac"] = median(r.tracedWall)/median(r.e2e["wall_s"]) - 1
	r.layer["trace.uncovered_frac"] = uncovered
	for _, pr := range probes {
		var xs []float64
		for i := 0; i < probeReps; i++ {
			runtime.GC()
			v, err := pr.run(r.w)
			if err != nil {
				r.attempted++
				r.failed++
				r.problem("probe %s: %v", pr.name, err)
				break
			}
			xs = append(xs, v)
		}
		r.layer[pr.name] = median(xs)
	}
}

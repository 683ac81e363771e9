package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"vessel/internal/sched"
	iworkload "vessel/internal/workload"
)

// runShort runs the benchmark at the tiny -short scale and decodes its
// result line.
func runShort(t *testing.T, args ...string) (resultLine, int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-short", "-seconds", "0", "-trace-dir", t.TempDir()}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return line, code, stdout.String()
}

// TestMetricsMatchBenchmarkJSON checks that every workload emits exactly
// the metrics BENCHMARK.json lists, each with its unit: the end-to-end
// ones untraced and the per-layer ones traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", got, want)
	}
	for _, w := range spec.Workloads {
		for trace, metrics := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			line, code, out := runShort(t, "-workload", w.Name, "-trace", trace)
			if code != 0 || !line.Correct || line.Failed != 0 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, line, out)
			}
			if len(line.Metrics) != len(metrics) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), len(metrics))
			}
			for _, m := range metrics {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestPassesGiveIdenticalDigests runs two passes of every workload at one
// seed and expects identical digests, and a different digest at another
// seed (the seed reaches the inputs).
func TestPassesGiveIdenticalDigests(t *testing.T) {
	digest := func(w *workload, seed uint64) [32]byte {
		p, err := w.setup(seed, true, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		p.run(newClock(nil))
		out := p.check(nil)
		if out.failed > 0 || out.ops == 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", w.name, out.failed, out.ops, out.problems)
		}
		return out.digest
	}
	for _, w := range workloads {
		a, b := digest(w, 3), digest(w, 3)
		if a != b {
			t.Errorf("%s: two passes at seed 3 gave digests %x and %x", w.name, a, b)
		}
		if c := digest(w, 4); c == a {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", w.name)
		}
	}
}

// TestTamperingHookFails plants the overcount bug of conformancebench
// -plant: VESSEL over-reports completions. The oracles must count the
// failures and the run must exit non-zero.
func TestTamperingHookFails(t *testing.T) {
	remove := sched.RegisterPostRunHook(func(_ sched.Config, r *sched.Result) {
		if r.Scheduler != "VESSEL" {
			return
		}
		for i := range r.Apps {
			if r.Apps[i].Kind == iworkload.LatencyCritical {
				r.Apps[i].Completed = r.Apps[i].Offered + 1
			}
		}
	})
	defer remove()
	for _, w := range []string{"colo-16c", "conformance-sweep"} {
		line, code, out := runShort(t, "-workload", w)
		if code == 0 || line.Correct || line.Failed == 0 || line.Failed > line.Attempted {
			t.Errorf("%s: tampering not caught: exit %d, result %+v\n%s", w, code, line, out)
		}
	}
}

// TestClockScalesByLowerReference checks the arithmetic of a step's scaled
// time, and that the reference loop allocates nothing, so it cannot move
// alloc_mb or live_heap_mb.
func TestClockScalesByLowerReference(t *testing.T) {
	c := newClock(nil)
	c.step("sleep", true, func() { time.Sleep(2 * time.Millisecond) })
	if len(c.refs) != 2 {
		t.Fatalf("%d reference rounds, want 2 (one before the step, one after)", len(c.refs))
	}
	want := c.wall.Seconds() * refNominal.Seconds() / min(c.refs[0], c.refs[1])
	if math.Abs(c.scaled-want) > 1e-9*want {
		t.Errorf("scaled = %v, want %v (wall %v, references %v)", c.scaled, want, c.wall, c.refs)
	}
	if n := testing.AllocsPerRun(5, func() { speed.run() }); n != 0 {
		t.Errorf("reference loop allocates %v times per run", n)
	}
}

func TestStatHelpers(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
		v     float64
	}{
		{1000, "p99", 990}, // exactly ten samples (991..1000) beyond
		{100, "p90", 90},
		{21, "p52", 11},
		{20, "max", 20},
		{3, "max", 3},
	} {
		if label, v := tail(seq(c.n)); label != c.label || v != c.v {
			t.Errorf("tail(n=%d) = %s %v; want %s %v", c.n, label, v, c.label, c.v)
		}
	}
}

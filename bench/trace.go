package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call from this program into a layer of the simulator.
// Spans are recorded only in traced passes, kept in memory, and written as
// Chrome trace JSON when the run ends.
type span struct {
	name   string
	id     int // 1-based; 0 is "no parent"
	parent int
	pass   int
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	// op marks the workload's unit of work (a scheduler run, a scenario,
	// or a cluster round). Op spans also record the host bytes allocated
	// inside them.
	op     bool
	allocB uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans. A nil *tracer records nothing, so untraced passes
// run the same code with tracing off.
type tracer struct {
	epoch time.Time
	pass  int
	spans []span
	open  []int // indexes of spans begun and not yet ended
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocated returns the host bytes allocated so far. It reads
// runtime/metrics, which does not stop the world.
func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span as a child of the innermost open span and returns its
// index for end. On a nil tracer it returns -1.
func (t *tracer) begin(name string, op bool) int {
	if t == nil {
		return -1
	}
	s := span{name: name, id: len(t.spans) + 1, pass: t.pass, op: op}
	if n := len(t.open); n > 0 {
		s.parent = t.spans[t.open[n-1]].id
	}
	if op {
		s.allocB = t.allocated()
	}
	s.start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = time.Since(t.epoch)
	if s.op {
		s.allocB = t.allocated() - s.allocB
	}
	t.open = t.open[:len(t.open)-1]
}

// dur returns the duration of the span at index i (0 on a nil tracer).
func (t *tracer) dur(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	return t.spans[i].dur()
}

// uncovered returns the share of span i's duration that its direct
// children leave uncovered: time spent in this program between layer calls.
func (t *tracer) uncovered(i int) float64 {
	root := t.spans[i]
	var covered time.Duration
	for _, s := range t.spans[i+1:] {
		if s.parent == root.id {
			covered += s.dur()
		}
	}
	if root.dur() <= 0 {
		return 0
	}
	return float64(root.dur()-covered) / float64(root.dur())
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores every span as Chrome trace JSON (chrome://tracing or
// Perfetto). Each event's args carry its id, parent id, pass id, and, for
// op spans, the host bytes allocated inside it.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	for i, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "pass": s.pass}
		if s.op {
			args["alloc_b"] = s.allocB
		}
		b, err := json.Marshal(chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
		})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package obs

import (
	"bytes"
	"strings"
	"testing"

	"vessel/internal/sim"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Span(0, 0, 10, CatApp, "x")
	o.Mark(1, 5, CatGate, "g")
	o.Begin(2, 0, CatRuntime, "r")
	o.End(2, 3)
	o.Charge(0, "x", CatApp, 10)
	o.UintrDeferred(0, 1)
	o.UintrFlush(0, 2)
	if o.Spans() != nil || o.SpanCount() != 0 || o.Overwritten() != 0 {
		t.Fatal("nil observer retained state")
	}
	if o.Reg() != nil || o.Profile() != nil {
		t.Fatal("nil observer handed out live components")
	}
	// The components themselves must also be nil-safe, so chained calls
	// like o.Reg().Inc(...) work disabled.
	o.Reg().Inc("c")
	o.Reg().Observe("h", 1)
	if got := o.Reg().Counter("c"); got != 0 {
		t.Fatalf("nil registry counter = %d", got)
	}
	if o.Profile().Get(0, "x", CatApp) != 0 {
		t.Fatal("nil profiler returned non-zero")
	}
	if o.Profile().ActivityTotal() != 0 {
		t.Fatal("nil profiler activity total non-zero")
	}
	if s := o.Profile().Table(5); s == "" {
		t.Fatal("nil profiler table empty string expected non-empty header")
	}
}

func TestCategoryStringRoundTrip(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Fatal("ParseCategory accepted junk")
	}
	if !CatSwitch.Activity() || CatGate.Activity() {
		t.Fatal("activity boundary wrong")
	}
}

func TestSpanRecordingAndCanonicalOrder(t *testing.T) {
	o := New(16)
	// Record out of order across cores; Spans must come back sorted by
	// (Start, Core, End, Cat, Name).
	o.Span(1, 50, 60, CatApp, "b")
	o.Span(0, 50, 55, CatRuntime, "a")
	o.Span(0, 10, 20, CatApp, "a")
	o.Mark(2, 50, CatGate, "g")
	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Start != 10 || spans[1].Core != 0 || spans[2].Core != 1 || spans[3].Core != 2 {
		t.Fatalf("order wrong: %+v", spans)
	}
	// Negative-length spans are clamped to instant markers, not dropped.
	o.Span(0, 30, 20, CatApp, "neg")
	if o.SpanCount() != 5 {
		t.Fatal("negative span not retained as a clamped marker")
	}
}

func TestRingOverwriteCounted(t *testing.T) {
	o := New(4)
	for i := 0; i < 10; i++ {
		o.Span(0, sim.Time(i), sim.Time(i+1), CatApp, "x")
	}
	if o.SpanCount() != 4 {
		t.Fatalf("retained %d spans, ring holds 4", o.SpanCount())
	}
	if o.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", o.Overwritten())
	}
	// Retained spans are the newest 4.
	spans := o.Spans()
	if spans[0].Start != 6 || spans[3].Start != 9 {
		t.Fatalf("ring kept wrong spans: %+v", spans)
	}
}

func TestBeginEndNesting(t *testing.T) {
	o := New(16)
	o.Begin(0, 10, CatGate, "outer")
	o.Begin(0, 12, CatWrPkru, "inner")
	o.End(0, 13)
	o.End(0, 20)
	spans := o.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0] != (Span{Core: 0, Start: 10, End: 20, Cat: CatGate, Name: "outer"}) {
		t.Fatalf("outer = %+v", spans[0])
	}
	if spans[1] != (Span{Core: 0, Start: 12, End: 13, Cat: CatWrPkru, Name: "inner"}) {
		t.Fatalf("inner = %+v", spans[1])
	}
	// Unmatched End is a no-op.
	o.End(0, 99)
	if o.SpanCount() != 2 {
		t.Fatal("unmatched End recorded a span")
	}
}

func TestUintrDeferredWindowFolds(t *testing.T) {
	o := New(16)
	o.UintrDeferred(3, 100)
	o.UintrDeferred(3, 150) // folds into the open window
	o.UintrFlush(3, 200)
	o.UintrFlush(3, 250) // no window: no-op
	spans := o.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	want := Span{Core: 3, Start: 100, End: 200, Cat: CatUintr, Name: "uintr.deferred"}
	if spans[0] != want {
		t.Fatalf("window = %+v, want %+v", spans[0], want)
	}
}

func TestProfilerConservationShape(t *testing.T) {
	o := New(16)
	o.Charge(0, "mc", CatApp, 700)
	o.Charge(0, "mc", CatApp, 50) // accumulates
	o.Charge(0, "", CatIdle, 250)
	o.Charge(1, "batch", CatRuntime, 500)
	o.Charge(1, "", CatWrPkru, 42) // overlay: excluded from activity total
	p := o.Profile()
	if got := p.Get(0, "mc", CatApp); got != 750 {
		t.Fatalf("bucket = %d", got)
	}
	if got := p.ActivityTotal(); got != 1500 {
		t.Fatalf("activity total = %d, want 1500", got)
	}
	totals := p.CategoryTotals()
	if totals[CatWrPkru] != 42 {
		t.Fatalf("overlay total = %d", totals[CatWrPkru])
	}
	table := p.Table(2)
	if !strings.Contains(table, "mc") || !strings.Contains(table, "... 2 more buckets") {
		t.Fatalf("table:\n%s", table)
	}
	collapsed := p.Collapsed()
	want := "core0;-;idle 250\ncore0;mc;app 750\ncore1;-;wrpkru 42\ncore1;batch;runtime 500\n"
	if collapsed != want {
		t.Fatalf("collapsed:\n%s\nwant:\n%s", collapsed, want)
	}
}

func TestFromSpansMatchesCollapsed(t *testing.T) {
	spans := []Span{
		{Core: 0, Start: 0, End: 10, Cat: CatApp, Name: "a"},
		{Core: 0, Start: 10, End: 12, Cat: CatSwitch, Name: ""},
		{Core: 0, Start: 20, End: 20, Cat: CatGate, Name: "instant"}, // zero-length: not charged
	}
	p := FromSpans(spans)
	if p.Get(0, "a", CatApp) != 10 || p.Get(0, "", CatSwitch) != 2 {
		t.Fatal("FromSpans charged wrong durations")
	}
	if p.Get(0, "instant", CatGate) != 0 {
		t.Fatal("zero-length span charged")
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Inc("b")
	r.Add("a", 5)
	r.Inc("b")
	r.Observe("lat", 100)
	r.Observe("lat", 200)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "b" || snap.Counters[0].Value != 2 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Name != "lat" || snap.Hists[0].Summary.Count != 2 {
		t.Fatalf("hists = %+v", snap.Hists)
	}
	if s := snap.String(); !strings.HasPrefix(s, "b=2\na=5\nlat: ") {
		t.Fatalf("rendering:\n%s", s)
	}
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("Counter = %d", got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	o := New(16)
	o.Span(0, 10, 20, CatApp, "mc")
	o.Span(1, 15, 30, CatRuntime, "")
	o.Mark(0, 25, CatWatchdog, "watchdog:mc")
	var buf bytes.Buffer
	if err := o.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := o.Spans()
	if len(spans) != len(want) {
		t.Fatalf("round trip lost spans: %d vs %d", len(spans), len(want))
	}
	for i := range spans {
		if spans[i] != want[i] {
			t.Fatalf("span %d: %+v != %+v", i, spans[i], want[i])
		}
	}
	// Decoder rejects junk.
	if _, err := ReadText(strings.NewReader("not a timeline\n")); err == nil {
		t.Fatal("decoder accepted junk header")
	}
	if _, err := ReadText(strings.NewReader(timelineHeader + "\nspan 0 5 1 app x\n")); err == nil {
		t.Fatal("decoder accepted end<start")
	}
}

func TestChromeTraceValidates(t *testing.T) {
	o := New(16)
	o.Span(0, 1000, 2000, CatApp, "mc")
	o.Span(0, 0, 3000, CatIdle, "") // idle: omitted from export
	o.Mark(1, 1500, CatGate, "park")
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "idle") {
		t.Fatalf("idle span exported:\n%s", out)
	}
	if err := ValidateChromeTrace(strings.NewReader(out)); err != nil {
		t.Fatalf("own export fails validation: %v", err)
	}
	// The validator rejects structurally broken documents.
	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"name":"x","ts":1,"pid":0,"tid":0}]}`,            // no ph
		`{"traceEvents":[{"name":"x","ph":"X","ts":"q","pid":0,"tid":0}]}`, // ts not a number
		`not json`,
		`{"traceEvents":[{"name":"a","ph":"s","id":"j1","ts":1,"pid":0,"tid":0}]}`, // flow start, no end
		`{"traceEvents":[{"name":"a","ph":"f","id":"j1","ts":1,"pid":0,"tid":0}]}`, // flow end, no start
	} {
		if err := ValidateChromeTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("validator accepted %s", bad)
		}
	}
}

func TestGanttRenders(t *testing.T) {
	spans := []Span{
		{Core: 0, Start: 0, End: 500, Cat: CatApp, Name: "mc"},
		{Core: 0, Start: 500, End: 1000, Cat: CatIdle},
		{Core: 1, Start: 0, End: 1000, Cat: CatRuntime},
		{Core: 1, Start: 200, End: 300, Cat: CatUintr, Name: "uintr.deferred"},
	}
	var buf bytes.Buffer
	if err := WriteGantt(&buf, spans, 0, 0, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core  0 |") || !strings.Contains(out, "core  1 |") {
		t.Fatalf("gantt:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "r") || !strings.Contains(out, "u") {
		t.Fatalf("gantt missing glyphs:\n%s", out)
	}
	if err := WriteGantt(&buf, nil, 0, 0, 20); err == nil {
		t.Fatal("empty gantt did not error")
	}
}

func TestBenchReportJSON(t *testing.T) {
	o := New(16)
	o.Span(0, 0, 10, CatApp, "a")
	o.Charge(0, "a", CatApp, 10)
	o.Reg().Inc("runs")
	var buf bytes.Buffer
	if err := o.WriteBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"profile_ns"`, `"app": 10`, `"spans": 1`, `"runs"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench json missing %s:\n%s", want, out)
		}
	}
}

// TestSpanClampNegative pins the negative-span guard: a span whose end
// precedes its start (a fault-rewind caller) is clamped to an instant
// marker at start and counted under obs.charge.clamped, while legitimate
// zero-length instant markers pass through uncounted.
func TestSpanClampNegative(t *testing.T) {
	o := New(8)
	o.Span(0, 100, 40, CatApp, "rewind")
	spans := o.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if s := spans[0]; s.Start != 100 || s.End != 100 {
		t.Fatalf("clamped span = [%d,%d], want instant marker at 100", s.Start, s.End)
	}
	if got := o.Reg().Counter("obs.charge.clamped"); got != 1 {
		t.Fatalf("obs.charge.clamped = %d after negative span, want 1", got)
	}
	o.Span(0, 200, 200, CatApp, "marker") // zero-length: legal, not clamped
	if got := o.Reg().Counter("obs.charge.clamped"); got != 1 {
		t.Fatalf("obs.charge.clamped = %d after instant marker, want still 1", got)
	}
	if n := o.SpanCount(); n != 2 {
		t.Fatalf("span count = %d, want 2", n)
	}
}

// TestChargeClampNegative pins the profiler-side guard: a negative charge
// is dropped (counted, never subtracted), a zero charge is a silent no-op,
// and positive charges accumulate normally afterwards.
func TestChargeClampNegative(t *testing.T) {
	o := New(8)
	o.Charge(0, "x", CatApp, -5)
	if d := o.Profile().Get(0, "x", CatApp); d != 0 {
		t.Fatalf("negative charge leaked %d into the profile", d)
	}
	if got := o.Reg().Counter("obs.charge.clamped"); got != 1 {
		t.Fatalf("obs.charge.clamped = %d after negative charge, want 1", got)
	}
	o.Charge(0, "x", CatApp, 0) // zero: neither charged nor clamped
	if got := o.Reg().Counter("obs.charge.clamped"); got != 1 {
		t.Fatalf("obs.charge.clamped = %d after zero charge, want still 1", got)
	}
	o.Charge(0, "x", CatApp, 7)
	if d := o.Profile().Get(0, "x", CatApp); d != 7 {
		t.Fatalf("profile bucket = %d after valid charge, want 7", d)
	}
	if got := o.Reg().Counter("obs.charge.clamped"); got != 1 {
		t.Fatalf("obs.charge.clamped = %d at end, want 1", got)
	}
}

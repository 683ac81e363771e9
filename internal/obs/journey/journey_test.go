package journey

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }

// TestConservationByConstruction: however a journey moves between
// segments — forwards, retroactively, repeatedly — the segment sum
// equals Done-Arrive exactly once finished.
func TestConservationByConstruction(t *testing.T) {
	tr := New()
	j := tr.Mint("req", us(10))
	j.To(SegRun, us(12))
	j.To(SegGate, us(12)) // zero-length transition
	j.To(SegRun, us(15))
	j.To(SegQueue, us(14)) // retroactive, clamps to 15
	j.To(SegData, us(20))
	j.Finish(us(25))

	if !j.Finished() {
		t.Fatal("not finished")
	}
	if got, want := j.Sum(), j.Done.Sub(j.Arrive); got != want {
		t.Fatalf("Sum %d != sojourn %d", int64(got), int64(want))
	}
	if j.Done != us(25) {
		t.Fatalf("Done = %d, want %d", int64(j.Done), int64(us(25)))
	}
	// Decomposition: queue [10,12] and [15,20] (the retroactive hop to
	// 14 clamped at 15, so run got zero length), gate [12,15], data
	// [20,25].
	if j.Segs[SegQueue] != 7*sim.Microsecond {
		t.Fatalf("queue = %v, want 7µs", j.Segs[SegQueue])
	}
	if j.Segs[SegGate] != 3*sim.Microsecond {
		t.Fatalf("gate = %v, want 3µs", j.Segs[SegGate])
	}
	if j.Segs[SegRun] != 0 {
		t.Fatalf("run = %v, want 0 (clamped to zero length)", j.Segs[SegRun])
	}
	if j.Segs[SegData] != 5*sim.Microsecond {
		t.Fatalf("data = %v, want 5µs", j.Segs[SegData])
	}
	// Finished journeys ignore further transitions.
	j.To(SegRun, us(30))
	j.Finish(us(40))
	if j.Done != us(25) || j.Sum() != j.Done.Sub(j.Arrive) {
		t.Fatal("finished journey mutated")
	}
}

// TestClampNeverNegative: a transition timestamp before the current
// segment's open instant must clamp, never produce a negative segment.
func TestClampNeverNegative(t *testing.T) {
	tr := New()
	j := tr.Mint("req", us(100))
	j.To(SegUintr, us(50)) // far in the past: clamps to 100
	j.To(SegRun, us(110))
	j.Finish(us(120))
	for s, d := range j.Segs {
		if d < 0 {
			t.Fatalf("segment %s negative: %d", Segment(s), int64(d))
		}
	}
	if j.Sum() != j.Done.Sub(j.Arrive) {
		t.Fatal("conservation broke under clamping")
	}
}

// TestTreeLinks: the span tree carries parent/child and follows-from
// edges in creation order.
func TestTreeLinks(t *testing.T) {
	tr := New()
	j := tr.Mint("req", us(0))
	j.To(SegRun, us(5))
	j.To(SegData, us(8))
	j.Finish(us(9))

	nodes := j.Tree()
	if len(nodes) != 4 { // root + queue + run + data
		t.Fatalf("got %d nodes, want 4", len(nodes))
	}
	root := nodes[0]
	if root.Parent != -1 || root.Start != us(0) || root.End != us(9) {
		t.Fatalf("bad root: %+v", root)
	}
	for _, n := range nodes[1:] {
		if n.Parent != 0 {
			t.Fatalf("node %d parent %d, want 0", n.ID, n.Parent)
		}
	}
	// queue span first, then run follows queue, data follows run.
	queue, run, data := nodes[1], nodes[2], nodes[3]
	if queue.Seg != SegQueue || queue.Follows != -1 {
		t.Fatalf("bad queue node: %+v", queue)
	}
	if run.Seg != SegRun || run.Follows != queue.ID {
		t.Fatalf("run follows %d, want %d", run.Follows, queue.ID)
	}
	if data.Seg != SegData || data.Follows != run.ID {
		t.Fatalf("data follows %d, want %d", data.Follows, run.ID)
	}
}

// TestNilSafety: every method on nil tracer/journey is a no-op.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	j := tr.Mint("x", us(0))
	if j != nil {
		t.Fatal("nil tracer minted a journey")
	}
	j.To(SegRun, us(1))
	j.Finish(us(2))
	if j.Finished() || j.Sojourn() != 0 || j.Sum() != 0 || j.Cur() != SegQueue {
		t.Fatal("nil journey has state")
	}
	tr.Event(us(0), "e", "d")
	tr.Dump(us(0), "r")
	if tr.Flight() != nil || tr.Journeys() != nil ||
		tr.Minted() != 0 || tr.ViolationFrac() != 0 {
		t.Fatal("nil tracer has state")
	}
	if g, b := tr.SLOCounts(); g != 0 || b != 0 {
		t.Fatal("nil tracer has SLO counts")
	}
	if a := tr.Analyze(); a.Finished != 0 {
		t.Fatal("nil tracer analyzed something")
	}
	if tr.Records() != nil || tr.Dumps() != nil {
		t.Fatal("nil tracer exported something")
	}
}

// TestFlightRecorderDump: the flight recorder retains the journey event
// stream, dumps snapshot it with the overwrite count, and a bounded ring
// counts what it loses.
func TestFlightRecorderDump(t *testing.T) {
	tr := NewTracer(Config{FlightCap: 4})
	for i := 0; i < 8; i++ {
		j := tr.Mint("req", us(int64(i)))
		j.Finish(us(int64(i) + 1))
	}
	if tr.Flight().Overwritten() == 0 {
		t.Fatal("ring never overwrote with cap 4 and 16 events")
	}
	d := tr.Dump(us(100), "uproc.kill.watchdog:w")
	if d.Reason != "uproc.kill.watchdog:w" || len(d.Events) == 0 {
		t.Fatalf("bad dump: %+v", d)
	}
	if d.Overwritten != tr.Flight().Overwritten() {
		t.Fatal("dump overwritten mismatch")
	}
	text := d.Text()
	if !strings.HasPrefix(text, "# vessel-flight-dump v1\n") {
		t.Fatalf("bad dump header: %q", text)
	}
	if !strings.Contains(text, "reason uproc.kill.watchdog:w") {
		t.Fatalf("dump text missing reason: %q", text)
	}
	if len(tr.Dumps()) != 1 {
		t.Fatal("dump not retained")
	}
}

// TestSLOWindows: finishes classify against the target over the whole
// run.
func TestSLOWindows(t *testing.T) {
	tr := NewTracer(Config{SLOTarget: 2 * sim.Microsecond})
	finish := func(arrive, done sim.Time) {
		j := tr.Mint("req", arrive)
		j.Finish(done)
	}
	finish(us(1), us(2))   // 1µs: good
	finish(us(3), us(8))   // 5µs: bad
	finish(us(11), us(13)) // 2µs, at the target: good
	if g, b := tr.SLOCounts(); g != 2 || b != 1 {
		t.Fatalf("SLO counts good=%d bad=%d", g, b)
	}
	if f := tr.ViolationFrac(); f < 0.33 || f > 0.34 {
		t.Fatalf("violation frac %f", f)
	}
}

// TestExportRoundTrip: WriteText → ReadText → WriteText is
// byte-identical, including unfinished journeys.
func TestExportRoundTrip(t *testing.T) {
	tr := NewTracer(Config{Retain: true})
	j := tr.Mint("req a", us(1))
	j.To(SegRun, us(2))
	j.Finish(us(3))
	tr.Mint("hang", us(4)) // unfinished: root node End stays unset

	var first bytes.Buffer
	if err := tr.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	recs, overwritten, err := ReadText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || overwritten != 0 {
		t.Fatalf("decoded %d recs, overwritten %d", len(recs), overwritten)
	}
	if recs[0].Name != "req a" { // display underscore round-trips back? no: "_" stays
		// Names with spaces export as underscores; the round-trip keeps
		// the exported form.
		if recs[0].Name != "req_a" {
			t.Fatalf("name %q", recs[0].Name)
		}
	}
	var second bytes.Buffer
	if err := WriteText(&second, recs, overwritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n--- first\n%s--- second\n%s", &first, &second)
	}
}

// TestBoundedExportsRefuse: a tracer without Retain has recycled its
// finished journeys, so each per-journey export fails naming the field
// instead of writing a truncated file.
func TestBoundedExportsRefuse(t *testing.T) {
	tr := New()
	tr.Mint("req", us(1)).Finish(us(2))
	tr.Mint("hang", us(3))
	for name, write := range map[string]func(*bytes.Buffer) error{
		"text":      func(b *bytes.Buffer) error { return tr.WriteText(b) },
		"chrome":    func(b *bytes.Buffer) error { return tr.WriteChromeTrace(b) },
		"collapsed": func(b *bytes.Buffer) error { return tr.WriteCollapsed(b) },
	} {
		var buf bytes.Buffer
		err := write(&buf)
		if err == nil || !strings.Contains(err.Error(), "Config.Retain") || buf.Len() != 0 {
			t.Errorf("%s export on a bounded tracer: err %v, %d bytes written", name, err, buf.Len())
		}
	}
}

// TestChromeTraceValidates: the journey Chrome export (including flow
// events) passes the repo's own Chrome trace validator.
func TestChromeTraceValidates(t *testing.T) {
	tr := NewTracer(Config{Retain: true})
	j := tr.Mint("req", us(1))
	j.To(SegRun, us(3))
	j.To(SegData, us(5))
	j.Finish(us(8))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, `"cat":"journey.flow"`, `"cat":"journey.run"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("chrome trace missing %s:\n%s", want, s)
		}
	}
	// Mutant: drop one flow end, and the orphaned start must fail.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, ev := range doc.TraceEvents {
		if ev["ph"] == "f" {
			doc.TraceEvents = append(doc.TraceEvents[:i], doc.TraceEvents[i+1:]...)
			break
		}
	}
	mutant, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ValidateChromeTrace(bytes.NewReader(mutant)) == nil {
		t.Fatal("validator accepted a flow start with no end")
	}
}

// TestCollapsed: finished journeys aggregate into name;segment weights
// in first-touch order.
func TestCollapsed(t *testing.T) {
	tr := NewTracer(Config{Retain: true})
	for i := 0; i < 2; i++ {
		j := tr.Mint("req", us(int64(10*i)))
		j.To(SegRun, us(int64(10*i)+2))
		j.Finish(us(int64(10*i) + 5))
	}
	tr.Mint("hang", us(100)) // unfinished: excluded
	var buf bytes.Buffer
	if err := tr.WriteCollapsed(&buf); err != nil {
		t.Fatal(err)
	}
	want := "req;queue 4000\nreq;run 6000\n"
	if buf.String() != want {
		t.Fatalf("collapsed:\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestFlightEventStrings: journey lifecycle events land in the flight
// recorder in simulation order with stable rendering.
func TestFlightEventStrings(t *testing.T) {
	tr := New()
	j := tr.Mint("req", us(1))
	j.To(SegRun, us(2))
	j.Finish(us(3))
	var names []string
	for _, e := range tr.Flight().Events() {
		names = append(names, e.Name)
	}
	want := []string{"journey.mint", "journey.seg", "journey.finish"}
	if len(names) != len(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("events %v, want %v", names, want)
		}
	}
}

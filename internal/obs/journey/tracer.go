package journey

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/trace"
)

// DefaultFlightCap is the default flight-recorder capacity: the last N
// journey events retained for black-box postmortems.
const DefaultFlightCap = 1 << 10

// Config parameterises a Tracer. The zero value is usable: default
// flight-recorder capacity, no SLO target, bounded storage.
type Config struct {
	// FlightCap bounds the flight recorder (≤0 selects DefaultFlightCap).
	FlightCap int
	// SLOTarget classifies finished journeys: sojourn above the target
	// is an SLO violation. Zero disables SLO accounting.
	SLOTarget sim.Duration
	// SampleEvery records 1 in N requests (values ≤1 record all): Mint
	// returns a live journey for every Nth request and nil — the
	// universally safe no-op journey — for the rest. The skip is a
	// deterministic arrival-counter decision, so identical runs sample
	// identical requests. Sampling trades per-request attribution
	// coverage for mint/record overhead; SLO tallies and histograms then
	// describe the sampled population.
	SampleEvery int
	// Retain keeps every finished journey and its span chain for the
	// per-journey exports (Records, WriteText, WriteChromeTrace,
	// WriteCollapsed), so the tracer grows with the number of requests.
	// Without it a finished journey's storage is reused and those
	// exports return an error. Either way each journey is checked and
	// folded at Finish, so every summary, verdict and dump is the same.
	Retain bool
}

// flightEntry is one self-describing flight-recorder event: it renders
// without the journey it names, which may be long recycled.
type flightEntry struct {
	at sim.Time
	// id is the journey ID; for flightEvent, the interned detail.
	id uint64
	// arg is the interned app name for flightMint, the sojourn for
	// flightFinish, and the interned event name for flightEvent.
	arg int64
	// note is a chainEntry note (a transition) or one of the flight*
	// kinds below.
	note int32
}

const (
	flightMint   int32 = -16
	flightFinish int32 = -17
	flightEvent  int32 = -18
)

// FlightLog is the always-on flight recorder: a trace.Ring of the last
// FlightCap journey events in simulation order, rendered to trace.Events
// only when a dump reads them. The ring grows as events arrive, so an
// idle tracer costs nothing. Events that scroll out are counted as
// overwritten, never lost silently.
type FlightLog struct {
	t    *Tracer // resolves interned names
	ring trace.Ring[flightEntry]
}

// Overwritten returns how many events have scrolled out of the window.
func (l *FlightLog) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	return l.ring.Overwritten()
}

// Events returns the retained events oldest-first, rendered in the
// canonical trace.Event form.
func (l *FlightLog) Events() []trace.Event {
	if l == nil || l.ring.Len() == 0 {
		return nil
	}
	out := make([]trace.Event, l.ring.Len())
	for i := range out {
		out[i] = l.render(l.ring.At(i))
	}
	return out
}

// render renders one ring entry in the canonical trace.Event form.
func (l *FlightLog) render(e flightEntry) trace.Event {
	strs := l.t.strs
	switch {
	case e.note >= -int32(NumSegments):
		return trace.Event{T: e.at, Name: "journey.seg", Detail: fmt.Sprintf("j=%d seg=%s", e.id, Segment(-1-e.note))}
	case e.note == flightMint:
		return trace.Event{T: e.at, Name: "journey.mint", Detail: fmt.Sprintf("j=%d app=%s", e.id, strs[e.arg])}
	case e.note == flightFinish:
		return trace.Event{T: e.at, Name: "journey.finish", Detail: fmt.Sprintf("j=%d sojourn=%d", e.id, e.arg)}
	default: // flightEvent
		return trace.Event{T: e.at, Name: strs[e.arg], Detail: strs[e.id]}
	}
}

// Dump is one flight-recorder snapshot: the black-box postmortem taken
// when a uProcess is killed, a domain restarts, or a failsafe swap
// fires.
type Dump struct {
	At          sim.Time
	Reason      string
	Overwritten uint64
	Events      []trace.Event
}

// Text renders the dump in its canonical byte form.
func (d Dump) Text() string {
	var b strings.Builder
	b.WriteString("# vessel-flight-dump v1\n")
	fmt.Fprintf(&b, "# at %d reason %s events %d overwritten %d\n",
		int64(d.At), d.Reason, len(d.Events), d.Overwritten)
	for _, e := range d.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Tracer is the per-run journey hub: it mints journeys in deterministic
// order, checks each against the conservation oracle when it finishes,
// owns the critical-path histograms and the SLO tallies, and runs the
// always-on bounded flight recorder. The nil *Tracer is the disabled
// state — every method returns immediately, and journeys minted from it
// are nil (themselves no-ops).
type Tracer struct {
	cfg    Config
	minted uint64
	// seen counts every Mint call, sampled or not — the denominator of
	// the sampling decision (and of Sampled).
	seen    uint64
	seg     [NumSegments]*stats.Histogram
	sojourn *stats.Histogram
	flight  *FlightLog
	// Journeys are carved out of fixed-size slot blocks (pointers stay
	// valid: blocks are never moved). slotN counts the slots handed out
	// of the last block; without Retain, finished slots wait in free for
	// the next Mint.
	blocks [][]Journey
	slotN  int
	free   []*Journey
	// The chain store: pointer-free span-log entries shared by all
	// journeys. Without Retain a finished journey's chain is spliced onto
	// freeChain, so the store is as large as the chains of the journeys
	// in flight.
	chain     []chainEntry
	freeChain int32
	// The intern table backing journey and seam-event names:
	// a small fixed vocabulary, referenced from entries by index. hot
	// caches the indices each hot call site interned last (see
	// intern).
	strs []string
	sidx map[string]int32
	hot  [numHotSites][hotWays]int32

	// Folded at Finish: the finished count and the sum of finished IDs
	// (the dense-ID audit), and the summed segment time Analyze turns
	// into the path mix.
	finished uint64
	idSum    uint64
	mix      [NumSegments]int64
	// found holds the oracle's findings on finished journeys.
	found verdicts
	// mutate, when set, edits each journey at the start of Finish. Only
	// tests set it, to prove the oracle catches a broken journey.
	mutate func(j *Journey, at sim.Time)

	good, bad uint64
	dumps     []Dump
}

// NewTracer returns an enabled tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = DefaultFlightCap
	}
	t := &Tracer{cfg: cfg, sidx: make(map[string]int32), freeChain: -1, sojourn: stats.NewHistogram()}
	for site := range t.hot {
		t.hot[site] = [hotWays]int32{-1, -1, -1, -1}
	}
	t.flight = &FlightLog{t: t, ring: trace.NewRing[flightEntry](cfg.FlightCap)}
	for s := range t.seg {
		t.seg[s] = stats.NewHistogram()
	}
	return t
}

// New returns an enabled tracer with default configuration.
func New() *Tracer { return NewTracer(Config{}) }

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Mint opens a new journey for a request arriving at the given instant.
// The journey starts in SegQueue. Journey IDs are mint order — the
// deterministic identity every export keys on. Under sampling
// (Config.SampleEvery > 1) only every Nth request gets a journey; the
// rest return nil, which every Journey method accepts as a no-op, so
// callers never check.
func (t *Tracer) Mint(name string, at sim.Time) *Journey {
	if t == nil {
		return nil
	}
	t.seen++
	if t.cfg.SampleEvery > 1 && (t.seen-1)%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	t.minted++
	var j *Journey
	if n := len(t.free); n > 0 {
		j = t.free[n-1]
		t.free = t.free[:n-1]
		*j = Journey{slot: j.slot, gen: j.gen + 1}
	} else {
		if len(t.blocks) == 0 || t.slotN == 1<<slotShift {
			t.blocks = append(t.blocks, make([]Journey, 1<<slotShift))
			t.slotN = 0
		}
		j = &t.blocks[len(t.blocks)-1][t.slotN]
		j.slot = uint32((len(t.blocks)-1)<<slotShift + t.slotN)
		t.slotN++
	}
	j.ID = t.minted
	j.Name = name
	j.Arrive = at
	j.t = t
	j.since = at
	j.lhead, j.ltail = -1, -1
	t.flight.ring.Add(flightEntry{at: at, id: j.ID, arg: int64(t.intern(hotMint, name)), note: flightMint})
	return j
}

// slotShift sizes the journey slot blocks.
const slotShift = 9

// Resolve returns the journey h names: nil for the zero handle, for a nil
// tracer, and for a journey whose slot has since been reused. On an
// untraced run every handle is zero, so resolving costs one compare.
func (t *Tracer) Resolve(h Handle) *Journey {
	if h == 0 {
		return nil
	}
	return t.resolve(h)
}

func (t *Tracer) resolve(h Handle) *Journey {
	if t == nil {
		return nil
	}
	slot := uint32(h) - 1
	j := &t.blocks[slot>>slotShift][slot&(1<<slotShift-1)]
	if j.gen != uint32(h>>32) {
		return nil
	}
	return j
}

// record appends one span-log entry to j's chain and the flight
// recorder. Only reachable through a live journey, so t is never nil.
func (t *Tracer) record(j *Journey, at sim.Time, note int32) {
	e := chainEntry{at: at, note: note, next: -1}
	i := t.freeChain
	if i >= 0 {
		t.freeChain = t.chain[i].next
		t.chain[i] = e
	} else {
		i = int32(len(t.chain))
		t.chain = append(t.chain, e)
	}
	if j.ltail >= 0 {
		t.chain[j.ltail].next = i
	} else {
		j.lhead = i
	}
	j.ltail = i
	t.flight.ring.Add(flightEntry{at: at, id: j.ID, note: note})
}

// The intern call sites: a run repeats the same few journey names and
// seam-event names and details, so each site first tries the hotWays
// indices it interned last and skips the map lookup when one of their
// strings matches. One remembered index is not enough: the
// sched.switch detail cycles through each app's name and "" (an idle
// core), and missed on three calls in four.
const (
	hotMint = iota
	hotEventName
	hotEventDetail
	numHotSites
)

const hotWays = 4

// intern maps s into the tracer's intern table from the given call site.
func (t *Tracer) intern(site int, s string) int32 {
	h := &t.hot[site]
	for _, i := range h {
		if i >= 0 && t.strs[i] == s {
			return i
		}
	}
	i, ok := t.sidx[s]
	if !ok {
		i = int32(len(t.strs))
		t.strs = append(t.strs, s)
		t.sidx[s] = i
	}
	copy(h[1:], h[:hotWays-1])
	h[0] = i
	return i
}

// Event records a seam event that is not bound to one journey (a
// scheduler wakeup→run switch edge, a watchdog kill, a domain restart)
// into the flight recorder's event stream.
func (t *Tracer) Event(at sim.Time, name, detail string) {
	if t == nil {
		return
	}
	d, n := t.intern(hotEventDetail, detail), t.intern(hotEventName, name)
	t.flight.ring.Add(flightEntry{at: at, id: uint64(d), arg: int64(n), note: flightEvent})
}

// finish runs everything a journey owes the tracer when it completes:
// the flight-recorder entry, the conservation oracle, the fold into the
// histograms, path mix and SLO tallies, and, without Retain, the
// release of its slot and chain. Called by Journey.Finish.
func (t *Tracer) finish(j *Journey) {
	soj := j.Sojourn()
	t.flight.ring.Add(flightEntry{at: j.Done, id: j.ID, arg: int64(soj), note: flightFinish})
	t.audit(j, &t.found)
	t.finished++
	t.idSum += j.ID
	t.sojourn.Record(int64(soj))
	for s, d := range j.Segs {
		if d > 0 {
			t.seg[s].Record(int64(d))
		}
		t.mix[s] += int64(d)
	}
	if t.cfg.SLOTarget > 0 {
		if soj > t.cfg.SLOTarget {
			t.bad++
		} else {
			t.good++
		}
	}
	if t.cfg.Retain {
		return
	}
	if j.lhead >= 0 {
		t.chain[j.ltail].next = t.freeChain
		t.freeChain = j.lhead
	}
	t.free = append(t.free, j)
}

// audit is the conservation oracle for one finished journey, run by
// Finish the moment it ends: its critical-path segments must sum to the
// sojourn exactly, and the span tree re-derived from its chain must keep
// its children inside the root's interval and its per-segment totals
// equal to the accumulators. The replay numbers nodes in the order it
// closes them, so its follows-from edges point backwards by
// construction; conformance.CheckJourney checks the edges a built Tree
// carries. A missed transition or a double close cannot hide
// behind the accumulator. The replay mirrors Tree without building
// nodes, so the check allocates nothing unless a finding fires.
func (t *Tracer) audit(j *Journey, v *verdicts) {
	if j.ID == 0 || j.ID > t.minted {
		v.add("journey %d (%s): ID outside mint order 1..%d", j.ID, j.Name, t.minted)
	}
	if j.Done < j.Arrive {
		v.add("journey %d (%s): Done %d before Arrive %d", j.ID, j.Name, int64(j.Done), int64(j.Arrive))
		return
	}
	var fromTree [NumSegments]sim.Duration
	id, cur, since := 1, SegQueue, j.Arrive
	// closeSeg closes the open segment as Tree does: a span of positive
	// length becomes the next node, following the previous span.
	closeSeg := func(at sim.Time) {
		if at <= since {
			return
		}
		if at > j.Done {
			v.add("journey %d node %d: span [%d,%d] escapes root [%d,%d]",
				j.ID, id, int64(since), int64(at), int64(j.Arrive), int64(j.Done))
		}
		fromTree[cur] += at.Sub(since)
		since = at
		id++
	}
	for i := j.lhead; i >= 0; {
		e := t.chain[i]
		i = e.next
		closeSeg(max(e.at, since))
		cur = Segment(-1 - e.note)
	}
	closeSeg(j.Done)
	var sum sim.Duration
	for s, d := range j.Segs {
		sum += d
		if fromTree[s] != d {
			v.add("journey %d segment %s: tree says %d ns, accumulator says %d ns",
				j.ID, Segment(s), int64(fromTree[s]), int64(d))
		}
	}
	if want := j.Done.Sub(j.Arrive); sum != want {
		v.add("journey %d (%s): segments sum to %d ns, sojourn is %d ns (Δ %d)",
			j.ID, j.Name, int64(sum), int64(want), int64(sum-want))
	}
}

// maxVerdicts bounds the oracle findings a tracer lists verbatim; the
// rest are counted.
const maxVerdicts = 64

// verdicts collects oracle findings: the first maxVerdicts verbatim,
// the rest counted.
type verdicts struct {
	kept []string
	n    uint64
}

func (v *verdicts) add(format string, args ...any) {
	v.n++
	if len(v.kept) < maxVerdicts {
		v.kept = append(v.kept, fmt.Sprintf(format, args...))
	}
}

// Verdicts returns the conservation oracle's findings on finished
// journeys, checked by Finish, and the dense-ID audit: every minted
// journey must be finished or in flight exactly once. Journeys still in
// flight are the caller's to check (see Journeys). At most maxVerdicts
// findings are listed; a last line counts the rest.
func (t *Tracer) Verdicts() []string {
	if t == nil {
		return nil
	}
	all := verdicts{kept: slices.Clone(t.found.kept), n: t.found.n}
	var open, sum uint64
	for _, j := range t.Journeys() {
		if !j.finished {
			open++
			sum += j.ID
		}
	}
	if n := t.minted; t.finished+open != n || t.idSum+sum != triangle(n) {
		all.add("tracer minted %d journeys but finished %d and holds %d in flight, not dense IDs 1..%d",
			n, t.finished, open, n)
	}
	if rest := all.n - uint64(len(all.kept)); rest > 0 {
		all.kept = append(all.kept, fmt.Sprintf("%d more journey violations not listed", rest))
	}
	return all.kept
}

// triangle returns 1+2+…+n modulo 2^64, the sum of dense IDs 1..n
// (the ID sums it is compared with wrap the same way).
func triangle(n uint64) uint64 {
	if n%2 == 0 {
		return n / 2 * (n + 1)
	}
	return (n + 1) / 2 * n
}

// SLOCounts returns the (good, violating) finish tallies.
func (t *Tracer) SLOCounts() (good, bad uint64) {
	if t == nil {
		return 0, 0
	}
	return t.good, t.bad
}

// ViolationFrac returns the fraction of SLO-classified finishes that
// violated the target (0 when SLOTarget is unset or nothing has
// finished) — the health signal selfheal consumes alongside phi-accrual.
func (t *Tracer) ViolationFrac() float64 {
	if t == nil || t.good+t.bad == 0 {
		return 0
	}
	return float64(t.bad) / float64(t.good+t.bad)
}

// Minted returns how many journeys have been minted.
func (t *Tracer) Minted() uint64 {
	if t == nil {
		return 0
	}
	return t.minted
}

// Sampled returns how many requests Mint has seen and how many of them
// received a journey; the two are equal when sampling is off.
func (t *Tracer) Sampled() (seen, minted uint64) {
	if t == nil {
		return 0, 0
	}
	return t.seen, t.minted
}

// Journeys returns the journeys the tracer holds, in mint order: every
// minted journey with Config.Retain, otherwise only those still in
// flight (finished ones live on in the summaries, verdicts and flight
// recorder).
func (t *Tracer) Journeys() []*Journey {
	if t == nil || t.minted == 0 {
		return nil
	}
	var out []*Journey
	for bi, blk := range t.blocks {
		if bi == len(t.blocks)-1 {
			blk = blk[:t.slotN]
		}
		for i := range blk {
			if j := &blk[i]; t.cfg.Retain || !j.finished {
				out = append(out, j)
			}
		}
	}
	// Reused slots break block order; sort back into mint order.
	slices.SortFunc(out, func(a, b *Journey) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Flight returns the flight recorder's event log (nil when disabled).
func (t *Tracer) Flight() *FlightLog {
	if t == nil {
		return nil
	}
	return t.flight
}

// Dump snapshots the flight recorder — the black-box postmortem. The
// dump is retained on the tracer (for the selfheal report) and
// returned.
func (t *Tracer) Dump(at sim.Time, reason string) Dump {
	if t == nil {
		return Dump{}
	}
	d := Dump{At: at, Reason: reason, Overwritten: t.flight.Overwritten(), Events: t.flight.Events()}
	t.dumps = append(t.dumps, d)
	return d
}

// Dumps returns the retained flight-recorder dumps in capture order.
func (t *Tracer) Dumps() []Dump {
	if t == nil {
		return nil
	}
	return t.dumps
}

// Analysis is the critical-path report: tail latency attributed, not
// just measured.
type Analysis struct {
	Finished   uint64
	Unfinished uint64
	Sojourn    stats.Summary
	Seg        [NumSegments]stats.Summary
	// Mix is the fraction of total attributed time per segment.
	Mix [NumSegments]float64
}

// Analyze summarises the tracer's finished journeys.
func (t *Tracer) Analyze() Analysis {
	var a Analysis
	if t == nil {
		return a
	}
	a.Finished = t.finished
	a.Unfinished = t.minted - t.finished
	a.Sojourn = t.sojourn.Summarize()
	for s := range t.seg {
		a.Seg[s] = t.seg[s].Summarize()
	}
	var tot int64
	for _, d := range t.mix {
		tot += d
	}
	if tot > 0 {
		for s, d := range t.mix {
			a.Mix[s] = float64(d) / float64(tot)
		}
	}
	return a
}

// String renders the analysis as the human-readable critical-path
// breakdown (deterministic; used by vesselsim -journey output).
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journeys: %d finished, %d unfinished\n", a.Finished, a.Unfinished)
	fmt.Fprintf(&b, "sojourn:  %s\n", a.Sojourn.String())
	for s := Segment(0); s < NumSegments; s++ {
		if a.Seg[s].Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-6s %5.1f%%  %s\n", s.String(), a.Mix[s]*100, a.Seg[s].String())
	}
	return b.String()
}

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vessel/internal/sim"
)

// timelineHeader is the first line of the plain-text timeline form — the
// version handshake cmd/traceconv checks before decoding.
const timelineHeader = "# vessel-obs-timeline v1"

// WriteText emits the canonical plain-text timeline: the header, an
// overwrite note, then one "span <core> <start> <end> <cat> <name>" line
// per span in the canonical sort order. This is the golden form the
// determinism tests compare byte-for-byte, and the interchange format
// cmd/traceconv decodes.
func (o *Observer) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, timelineHeader)
	fmt.Fprintf(bw, "# spans %d overwritten %d\n", o.SpanCount(), o.Overwritten())
	for _, s := range o.Spans() {
		fmt.Fprintf(bw, "span %d %d %d %s %s\n",
			s.Core, int64(s.Start), int64(s.End), s.Cat, displayName(s.Name))
	}
	return bw.Flush()
}

// ReadText decodes a timeline produced by WriteText.
func ReadText(r io.Reader) ([]Span, error) {
	spans, _, err := ReadTextMeta(r)
	return spans, err
}

// MaxTimelineCores bounds the core ids a decoded timeline may name: four
// times the 1,024 cores of the largest simulated cluster. Consumers size
// per-core state by the largest id (the Gantt renderer allocates a row per
// core), so an unchecked id from a file could ask for gigabytes.
const MaxTimelineCores = 4096

// ReadTextMeta decodes a timeline produced by WriteText and additionally
// returns the overwritten-span count from the "# spans N overwritten M"
// note, so consumers (cmd/traceconv -validate) can report a truncated
// timeline instead of treating it as complete.
func ReadTextMeta(r io.Reader) ([]Span, uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var spans []Span
	var overwritten uint64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != timelineHeader {
				return nil, 0, fmt.Errorf("obs: not a timeline (missing %q header)", timelineHeader)
			}
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			if f := strings.Fields(text); len(f) == 5 && f[1] == "spans" && f[3] == "overwritten" {
				if n, err := strconv.ParseUint(f[4], 10, 64); err == nil {
					overwritten = n
				}
			}
			continue
		}
		f := strings.Fields(text)
		if len(f) != 6 || f[0] != "span" {
			return nil, 0, fmt.Errorf("obs: line %d: want \"span core start end cat name\", got %q", line, text)
		}
		core, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, 0, fmt.Errorf("obs: line %d: bad core: %v", line, err)
		}
		if core < 0 || core >= MaxTimelineCores {
			return nil, 0, fmt.Errorf("obs: line %d: core %d outside [0, %d)", line, core, MaxTimelineCores)
		}
		start, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("obs: line %d: bad start: %v", line, err)
		}
		end, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("obs: line %d: bad end: %v", line, err)
		}
		if end < start {
			return nil, 0, fmt.Errorf("obs: line %d: end %d before start %d", line, end, start)
		}
		cat, err := ParseCategory(f[4])
		if err != nil {
			return nil, 0, fmt.Errorf("obs: line %d: %v", line, err)
		}
		name := f[5]
		if name == "-" {
			name = ""
		}
		spans = append(spans, Span{Core: core, Start: sim.Time(start), End: sim.Time(end), Cat: cat, Name: name})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if line == 0 {
		return nil, 0, fmt.Errorf("obs: empty timeline")
	}
	return spans, overwritten, nil
}

// ChromeEvent is one Chrome trace-event. Spans are "X" complete events;
// instant markers carry dur 0. The journey export adds "s"/"f" flow events,
// which carry a flow id and a binding point. Field order is fixed by the
// struct, so the encoding is byte-deterministic.
type ChromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds of virtual time
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	ID   string  `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
}

// WriteChromeEvents encodes events as a Chrome trace-event JSON document.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}

// Track (pid) assignment: activity spans tile pid 0 (one tid per core);
// overlay spans annotate pid 1 so Perfetto renders them as a parallel
// track group instead of fighting the activity tiling.
const (
	activityPID = 0
	overlayPID  = 1
)

// WriteChromeTrace encodes spans in the Chrome trace-event JSON format,
// loadable in Perfetto and chrome://tracing. Idle spans are omitted — the
// gaps read as idle.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]ChromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.Cat == CatIdle {
			continue
		}
		name := s.Cat.String()
		if s.Name != "" {
			name = s.Name + " (" + name + ")"
		}
		pid := activityPID
		if !s.Cat.Activity() {
			pid = overlayPID
		}
		events = append(events, ChromeEvent{
			Name: name,
			Cat:  s.Cat.String(),
			Ph:   "X",
			TS:   float64(s.Start) / 1000,
			Dur:  float64(s.Duration()) / 1000,
			PID:  pid,
			TID:  s.Core,
		})
	}
	return WriteChromeEvents(w, events)
}

// WriteChromeTrace is the observer-level convenience over the recorded
// spans.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, o.Spans())
}

// ValidateChromeTrace checks a Chrome trace-event JSON document against the
// schema subset every consumer requires: a traceEvents array whose entries
// all carry ph (string), ts (number), pid (number), tid (number), and name
// (string). An empty trace fails — a run that recorded nothing is a
// configuration error, not a valid export. Flow events must pair up: every
// "s" (flow start) id needs an "f" (flow end) with the same id, and the
// reverse, or a viewer draws arrows to nowhere. This is the CI schema gate.
func ValidateChromeTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no events")
	}
	flows := map[string]int{} // flow id → starts minus ends
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "name"} {
			var s string
			raw, ok := ev[key]
			if !ok || json.Unmarshal(raw, &s) != nil {
				return fmt.Errorf("obs: event %d: missing or non-string %q", i, key)
			}
		}
		for _, key := range []string{"ts", "pid", "tid"} {
			var n float64
			raw, ok := ev[key]
			if !ok || json.Unmarshal(raw, &n) != nil {
				return fmt.Errorf("obs: event %d: missing or non-numeric %q", i, key)
			}
		}
		var ph string
		json.Unmarshal(ev["ph"], &ph) // checked above
		switch ph {
		case "s":
			flows[string(ev["id"])]++
		case "f":
			flows[string(ev["id"])]--
		}
	}
	for id, n := range flows {
		if n != 0 {
			return fmt.Errorf("obs: flow id %s is unpaired (starts minus ends = %d)", id, n)
		}
	}
	return nil
}

// ganttGlyph maps categories to timeline characters: the Figure 7 legend
// for activities, extended with overlay glyphs.
func ganttGlyph(c Category) byte {
	switch c {
	case CatApp:
		return '#'
	case CatRuntime:
		return 'r'
	case CatKernel:
		return 'K'
	case CatSwitch:
		return 's'
	case CatGate:
		return 'g'
	case CatWrPkru:
		return 'w'
	case CatUintr:
		return 'u'
	case CatWatchdog:
		return '!'
	case CatRestart:
		return 'R'
	default:
		return '.'
	}
}

// occupancy is how long each category covers one strip bucket.
type occupancy [NumCategories]float64

// dominant returns the category in [lo, hi] covering the bucket longest
// (the lowest on a tie) and its weight; 0 weight means none covers it.
func (b *occupancy) dominant(lo, hi Category) (Category, float64) {
	best, bestV := lo, 0.0
	for k := lo; k <= hi; k++ {
		if b[k] > bestV {
			best, bestV = k, b[k]
		}
	}
	return best, bestV
}

// occupancies splits [from, to) into width buckets and sums, per core
// below cores, how long each category covers each bucket. Spans are
// clipped to the window; an instant marker weighs 1 in its bucket.
func occupancies(spans []Span, cores int, from, to sim.Time, width int) [][]occupancy {
	bucketNs := float64(to-from) / float64(width)
	grid := make([][]occupancy, cores)
	for c := range grid {
		grid[c] = make([]occupancy, width)
	}
	for _, s := range spans {
		if s.Core < 0 || s.Core >= cores || s.End <= from || s.Start >= to {
			continue
		}
		lo, hi := max(s.Start, from), min(s.End, to)
		b0 := min(int(float64(lo-from)/bucketNs), width-1)
		b1 := b0
		if hi > lo {
			b1 = min(int(float64(hi-from-1)/bucketNs), width-1)
		}
		for b := b0; b <= b1; b++ {
			bs := from.Add(sim.Duration(float64(b) * bucketNs))
			be := from.Add(sim.Duration(float64(b+1) * bucketNs))
			weight := float64(min(hi, be) - max(lo, bs))
			if weight <= 0 {
				weight = 1 // instant markers still claim their bucket
			}
			grid[s.Core][b][s.Cat] += weight
		}
	}
	return grid
}

// activityStrip renders one core's buckets as the dominant activity of
// each: '#' app, 'r' runtime, 'K' kernel, 's' switch, '.' idle.
func activityStrip(buckets []occupancy) []byte {
	strip := make([]byte, len(buckets))
	for b := range buckets {
		best, _ := buckets[b].dominant(CatIdle, CatSwitch)
		strip[b] = ganttGlyph(best)
	}
	return strip
}

// WriteGantt renders a per-core ASCII gantt summary of [from, to): one
// width-character activity strip per core (dominant activity category per
// bucket) and, when overlay spans exist in the window, a second strip per
// core marking gate/wrpkru/uintr/watchdog/restart activity.
func WriteGantt(w io.Writer, spans []Span, from, to sim.Time, width int) error {
	if width <= 0 {
		width = 100
	}
	if to <= from && len(spans) > 0 {
		// Default to the spans' full range.
		from, to = spans[0].Start, spans[0].End
		for _, s := range spans {
			from, to = min(from, s.Start), max(to, s.End)
		}
	}
	if to <= from {
		return fmt.Errorf("obs: empty gantt window")
	}
	cores := 0
	for _, s := range spans {
		cores = max(cores, s.Core+1)
	}
	grid := occupancies(spans, cores, from, to, width)
	haveOverlay := false
	for _, buckets := range grid {
		for b := range buckets {
			if _, v := buckets[b].dominant(CatGate, NumCategories-1); v > 0 {
				haveOverlay = true
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "core gantt %v → %v  (#=app r=runtime K=kernel s=switch .=idle | g=gate w=wrpkru u=uintr !=watchdog R=restart)\n",
		from, to)
	for c, buckets := range grid {
		fmt.Fprintf(bw, "core %2d |%s|\n", c, activityStrip(buckets))
		if !haveOverlay {
			continue
		}
		over := make([]byte, width)
		for b := range buckets {
			over[b] = ' '
			if k, v := buckets[b].dominant(CatGate, NumCategories-1); v > 0 {
				over[b] = ganttGlyph(k)
			}
		}
		fmt.Fprintf(bw, "        |%s|\n", over)
	}
	return bw.Flush()
}

// WriteTimelines renders the Figure 7 exhibit of [from, to): a legend,
// then one width-character activity strip for each core below cores. A
// core with no spans renders as idle. It refuses, naming the core, when a
// ring has overwritten a span that ends after from, because that window
// would render as idle instead of what the core did.
func (o *Observer) WriteTimelines(w io.Writer, cores int, from, to sim.Time, width int) error {
	if cores < 0 || width <= 0 || to <= from {
		return fmt.Errorf("obs: timeline needs cores ≥ 0, width > 0 and from < to")
	}
	var spans []Span
	if o != nil {
		for c, r := range o.rings[:min(cores, len(o.rings))] {
			if r == nil {
				continue
			}
			if r.lostEnd > from {
				return fmt.Errorf("obs: core %d overwrote %d spans, the latest ending at %v, after the timeline start %v; give its ring more capacity",
					c, r.spans.Overwritten(), r.lostEnd, from)
			}
			for i := range r.spans.Len() {
				if s := r.spans.At(i); s.End > from && s.Start < to {
					spans = append(spans, s)
				}
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "core timelines %v → %v  (#=app r=runtime K=kernel s=switch .=idle)\n", from, to)
	for c, buckets := range occupancies(spans, cores, from, to, width) {
		fmt.Fprintf(bw, "core %2d |%s|\n", c, activityStrip(buckets))
	}
	return bw.Flush()
}

// BenchReport is the machine-readable observability summary of a run (or a
// batch of runs sharing one observer): per-category cycle totals, span and
// eviction counts, and the metrics-registry snapshot. cmd/experiments
// writes it as BENCH_obs.json — the seed of the repo's perf trajectory.
type BenchReport struct {
	ProfileNs   map[string]int64 `json:"profile_ns"`
	Spans       int              `json:"spans"`
	Overwritten uint64           `json:"overwritten"`
	Registry    Snapshot         `json:"registry"`
}

// BenchReport assembles the summary. The ProfileNs map is keyed by category
// name; encoding/json sorts map keys, so the encoding stays deterministic.
func (o *Observer) BenchReport() BenchReport {
	rep := BenchReport{
		ProfileNs:   map[string]int64{},
		Spans:       o.SpanCount(),
		Overwritten: o.Overwritten(),
		Registry:    o.Reg().Snapshot(),
	}
	totals := o.Profile().CategoryTotals()
	for c := Category(0); c < NumCategories; c++ {
		if totals[c] != 0 {
			rep.ProfileNs[c.String()] = int64(totals[c])
		}
	}
	return rep
}

// WriteBenchJSON encodes the BenchReport as indented JSON.
func (o *Observer) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.BenchReport())
}

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

// chromeEvent is one Chrome trace-event. All events are "complete" ("X")
// phases; instant markers carry dur 0. Field order is fixed by the struct,
// so the encoding is byte-deterministic.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds of virtual time
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
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
// gaps read as idle, exactly like trace.Recorder's exporter.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
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
		events = append(events, chromeEvent{
			Name: name,
			Cat:  s.Cat.String(),
			Ph:   "X",
			TS:   float64(s.Start) / 1000,
			Dur:  float64(s.Duration()) / 1000,
			PID:  pid,
			TID:  s.Core,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
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

// ganttGlyphs maps categories to timeline characters (matching the trace
// package's Figure 7 legend, extended with overlay glyphs).
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
			if s.Start < from {
				from = s.Start
			}
			if s.End > to {
				to = s.End
			}
		}
	}
	if to <= from {
		return fmt.Errorf("obs: empty gantt window")
	}
	cores := 0
	for _, s := range spans {
		if s.Core+1 > cores {
			cores = s.Core + 1
		}
	}
	bucketNs := float64(to-from) / float64(width)
	type occ struct {
		act     [NumCategories]float64
		overlay [NumCategories]float64
	}
	grid := make([][]occ, cores)
	for c := range grid {
		grid[c] = make([]occ, width)
	}
	haveOverlay := false
	for _, s := range spans {
		if s.Core < 0 || s.End <= from || s.Start >= to {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		b0 := int(float64(lo-from) / bucketNs)
		b1 := int(float64(hi-from) / bucketNs)
		if hi > lo {
			b1 = int(float64(hi-from-1) / bucketNs)
		}
		if b0 >= width {
			b0 = width - 1
		}
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			bs := from.Add(sim.Duration(float64(b) * bucketNs))
			be := from.Add(sim.Duration(float64(b+1) * bucketNs))
			l, h := lo, hi
			if l < bs {
				l = bs
			}
			if h > be {
				h = be
			}
			weight := float64(h - l)
			if weight <= 0 {
				weight = 1 // instant markers still claim their bucket
			}
			if s.Cat.Activity() {
				grid[s.Core][b].act[s.Cat] += weight
			} else {
				grid[s.Core][b].overlay[s.Cat] += weight
				haveOverlay = true
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "core gantt %v → %v  (#=app r=runtime K=kernel s=switch .=idle | g=gate w=wrpkru u=uintr !=watchdog R=restart)\n",
		from, to)
	for c := 0; c < cores; c++ {
		var strip, over []byte
		for b := 0; b < width; b++ {
			best, bestV := CatIdle, 0.0
			for k := Category(0); k <= CatSwitch; k++ {
				if grid[c][b].act[k] > bestV {
					bestV = grid[c][b].act[k]
					best = k
				}
			}
			strip = append(strip, ganttGlyph(best))
			oBest, oBestV := Category(0), 0.0
			for k := CatGate; k < NumCategories; k++ {
				if grid[c][b].overlay[k] > oBestV {
					oBestV = grid[c][b].overlay[k]
					oBest = k
				}
			}
			if oBestV > 0 {
				over = append(over, ganttGlyph(oBest))
			} else {
				over = append(over, ' ')
			}
		}
		fmt.Fprintf(bw, "core %2d |%s|\n", c, strip)
		if haveOverlay {
			fmt.Fprintf(bw, "        |%s|\n", over)
		}
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

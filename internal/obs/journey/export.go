package journey

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vessel/internal/obs"
	"vessel/internal/sim"
)

// Header is the first line of the plain-text journey interchange form —
// the version handshake cmd/traceconv checks before decoding.
const Header = "# vessel-journey v1"

// Record is one journey's exportable state: the decoded interchange
// form, decoupled from the live tracer so traceconv can round-trip it.
type Record struct {
	ID       uint64
	Name     string
	Arrive   sim.Time
	Done     sim.Time
	Finished bool
	Segs     [NumSegments]sim.Duration
	Nodes    []Node
}

// Records returns the journeys the tracer holds (see Journeys) as
// records, in mint order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	js := t.Journeys()
	out := make([]Record, 0, len(js))
	for _, j := range js {
		out = append(out, Record{
			ID: j.ID, Name: j.Name, Arrive: j.Arrive, Done: j.Done,
			Finished: j.finished, Segs: j.Segs, Nodes: j.Tree(),
		})
	}
	return out
}

// retained returns the records of a tracer that keeps every journey, or
// an error naming the Config field that would: a bounded tracer's
// records are only the journeys in flight, and exporting them as the
// run's journeys would silently truncate the export.
func (t *Tracer) retained() ([]Record, error) {
	if t != nil && !t.cfg.Retain {
		return nil, fmt.Errorf("journey: export needs a tracer built with Config.Retain; this one recycled %d finished journeys", t.finished)
	}
	return t.Records(), nil
}

func displayName(name string) string {
	if name == "" {
		return "-"
	}
	return strings.ReplaceAll(name, " ", "_")
}

// WriteText emits the canonical plain-text journey form: the header, a
// count note carrying the flight recorder's overwrite count (so a
// truncated black box is never mistaken for a complete one), then per
// journey one "journey" line with the segment decomposition and one
// "node" line per span-tree node. Byte-deterministic given the same
// records — the golden form the on/off differential compares.
func WriteText(w io.Writer, recs []Record, flightOverwritten uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, Header)
	finished := 0
	for _, r := range recs {
		if r.Finished {
			finished++
		}
	}
	fmt.Fprintf(bw, "# journeys %d finished %d flight-overwritten %d\n",
		len(recs), finished, flightOverwritten)
	for _, r := range recs {
		fin := 0
		if r.Finished {
			fin = 1
		}
		fmt.Fprintf(bw, "journey %d %d %d %d", r.ID, int64(r.Arrive), int64(r.Done), fin)
		for _, d := range r.Segs {
			fmt.Fprintf(bw, " %d", int64(d))
		}
		fmt.Fprintf(bw, " %s\n", displayName(r.Name))
		for _, n := range r.Nodes {
			end := n.End
			if end < n.Start {
				end = n.Start // unfinished root: End never set
			}
			fmt.Fprintf(bw, "node %d %d %d %d %s %d %d %s\n",
				r.ID, n.ID, n.Parent, n.Follows, n.Seg, int64(n.Start), int64(end), displayName(n.Name))
		}
	}
	return bw.Flush()
}

// WriteText is the tracer-level convenience over Records; it needs
// Config.Retain.
func (t *Tracer) WriteText(w io.Writer) error {
	recs, err := t.retained()
	if err != nil {
		return err
	}
	return WriteText(w, recs, t.Flight().Overwritten())
}

// ReadText decodes a journey export produced by WriteText, returning
// the records and the flight-recorder overwrite count from the header.
func ReadText(r io.Reader) ([]Record, uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var recs []Record
	var overwritten uint64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != Header {
				return nil, 0, fmt.Errorf("journey: not a journey export (missing %q header)", Header)
			}
			continue
		}
		if strings.HasPrefix(text, "# journeys ") {
			f := strings.Fields(text)
			// "# journeys N finished M flight-overwritten K"
			if len(f) == 7 {
				overwritten, _ = strconv.ParseUint(f[6], 10, 64)
			}
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "journey":
			if len(f) != 5+int(NumSegments)+1 {
				return nil, 0, fmt.Errorf("journey: line %d: malformed journey line %q", line, text)
			}
			var rec Record
			id, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("journey: line %d: bad id: %v", line, err)
			}
			rec.ID = id
			arrive, err1 := strconv.ParseInt(f[2], 10, 64)
			done, err2 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, 0, fmt.Errorf("journey: line %d: bad times in %q", line, text)
			}
			rec.Arrive, rec.Done = sim.Time(arrive), sim.Time(done)
			rec.Finished = f[4] == "1"
			for s := 0; s < int(NumSegments); s++ {
				d, err := strconv.ParseInt(f[5+s], 10, 64)
				if err != nil {
					return nil, 0, fmt.Errorf("journey: line %d: bad segment: %v", line, err)
				}
				rec.Segs[s] = sim.Duration(d)
			}
			rec.Name = f[5+int(NumSegments)]
			if rec.Name == "-" {
				rec.Name = ""
			}
			recs = append(recs, rec)
		case "node":
			if len(f) != 9 {
				return nil, 0, fmt.Errorf("journey: line %d: malformed node line %q", line, text)
			}
			if len(recs) == 0 {
				return nil, 0, fmt.Errorf("journey: line %d: node before any journey", line)
			}
			rec := &recs[len(recs)-1]
			jid, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil || jid != rec.ID {
				return nil, 0, fmt.Errorf("journey: line %d: node journey id %q does not match journey %d", line, f[1], rec.ID)
			}
			var n Node
			ints := []*int{&n.ID, &n.Parent, &n.Follows}
			for i, p := range ints {
				v, err := strconv.Atoi(f[2+i])
				if err != nil {
					return nil, 0, fmt.Errorf("journey: line %d: bad node field: %v", line, err)
				}
				*p = v
			}
			seg, err := ParseSegment(f[5])
			if err != nil {
				return nil, 0, fmt.Errorf("journey: line %d: %v", line, err)
			}
			n.Seg = seg
			start, err1 := strconv.ParseInt(f[6], 10, 64)
			end, err2 := strconv.ParseInt(f[7], 10, 64)
			if err1 != nil || err2 != nil || end < start {
				return nil, 0, fmt.Errorf("journey: line %d: bad node times in %q", line, text)
			}
			n.Start, n.End = sim.Time(start), sim.Time(end)
			n.Name = f[8]
			if n.Name == "-" {
				n.Name = ""
			}
			rec.Nodes = append(rec.Nodes, n)
		default:
			return nil, 0, fmt.Errorf("journey: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if line == 0 {
		return nil, 0, fmt.Errorf("journey: empty export")
	}
	return recs, overwritten, nil
}

// journeyPID groups journey tracks apart from the obs timeline's
// activity (pid 0) and overlay (pid 1) track groups.
const journeyPID = 2

// WriteChromeTrace encodes journey records as Chrome trace-event JSON:
// one track (tid = journey ID) per request, the root request span and
// its segment children as "X" events, and a flow arrow ("s" at the end
// of each segment, "f" at the start of its successor) per follows-from
// edge. Unfinished journeys contribute their closed segments only.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	var events []obs.ChromeEvent
	for _, r := range recs {
		tid := int(r.ID)
		if r.Finished {
			events = append(events, obs.ChromeEvent{
				Name: displayName(r.Name), Cat: "journey", Ph: "X",
				TS: float64(r.Arrive) / 1000, Dur: float64(r.Done.Sub(r.Arrive)) / 1000,
				PID: journeyPID, TID: tid,
			})
		}
		for _, n := range r.Nodes {
			if n.ID == 0 {
				continue // root emitted above
			}
			events = append(events, obs.ChromeEvent{
				Name: displayName(n.Name), Cat: "journey." + n.Seg.String(), Ph: "X",
				TS: float64(n.Start) / 1000, Dur: float64(n.End.Sub(n.Start)) / 1000,
				PID: journeyPID, TID: tid,
			})
			if n.Follows >= 0 && n.Follows < len(r.Nodes) {
				prev := r.Nodes[n.Follows]
				flowID := fmt.Sprintf("j%d.%d", r.ID, n.ID)
				events = append(events, obs.ChromeEvent{
					Name: "follows", Cat: "journey.flow", Ph: "s",
					TS: float64(prev.End) / 1000, PID: journeyPID, TID: tid, ID: flowID,
				})
				events = append(events, obs.ChromeEvent{
					Name: "follows", Cat: "journey.flow", Ph: "f", BP: "e",
					TS: float64(n.Start) / 1000, PID: journeyPID, TID: tid, ID: flowID,
				})
			}
		}
	}
	return obs.WriteChromeEvents(w, events)
}

// WriteChromeTrace is the tracer-level convenience over Records; it
// needs Config.Retain.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs, err := t.retained()
	if err != nil {
		return err
	}
	return WriteChromeTrace(w, recs)
}

// WriteCollapsed emits per-request collapsed stacks in the
// flamegraph.pl format: "request-name;segment weight-ns", aggregated
// over finished journeys in first-touch order — so the tail's
// critical-path mix renders as a flame graph.
func WriteCollapsed(w io.Writer, recs []Record) error {
	type key struct {
		name string
		seg  Segment
	}
	idx := make(map[key]int)
	var order []key
	var weight []int64
	for _, r := range recs {
		if !r.Finished {
			continue
		}
		for s := Segment(0); s < NumSegments; s++ {
			d := r.Segs[s]
			if d <= 0 {
				continue
			}
			k := key{displayName(r.Name), s}
			i, ok := idx[k]
			if !ok {
				i = len(order)
				idx[k] = i
				order = append(order, k)
				weight = append(weight, 0)
			}
			weight[i] += int64(d)
		}
	}
	bw := bufio.NewWriter(w)
	for i, k := range order {
		fmt.Fprintf(bw, "%s;%s %d\n", k.name, k.seg, weight[i])
	}
	return bw.Flush()
}

// WriteCollapsed is the tracer-level convenience over Records; it needs
// Config.Retain.
func (t *Tracer) WriteCollapsed(w io.Writer) error {
	recs, err := t.retained()
	if err != nil {
		return err
	}
	return WriteCollapsed(w, recs)
}

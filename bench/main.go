// Command bench is the repository's end-to-end benchmark. It times the
// simulator (host time, not simulated time) on four workloads — the
// colocation cell, core-count saturation, the 8-domain × 128-core
// scheduled cluster, and the conformance sweep — checks every output
// against the previous pass and, at the default seed, against committed
// digests, and prints each metric by name with its unit, median, quartiles
// and sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {"wall_s": {"value": 1.93, "unit": "s"}, ...}}
//
// Run it from the repository root with bash bench/run.sh [flags]; see
// README.md for the workloads, the metrics and how to read a trace.
//
// Exit status: 0 when every op passed, 1 when any failed, 2 on bad flags.
package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

func main() {
	// The simulator runs on one goroutine. With one P, the garbage
	// collector shares that thread instead of running on a second core,
	// whose speed the reference loop does not measure. On a shared 2-vCPU
	// host this cut the spread of wall_s across ten seeds from 0.10–0.28
	// to 0.03–0.10.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "measuring budget per workload, host seconds (at least 3 timed passes run regardless)")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run: per-layer metrics instead of end-to-end ones, spans written as Chrome trace JSON")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the traced run's Chrome trace JSON goes to")
	short := fs.Bool("short", false, "run every workload at a tiny scale (a smoke test; digests are not compared with golden.json)")
	update := fs.Bool("update-golden", false, "regenerate golden.json from one pass of every workload at the default seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "bench: -seconds must not be negative\n")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []*workload{w}
	}
	if *update {
		if err := updateGolden(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, short: *short}
	if o.seed == defaultSeed && !o.short {
		if err := json.Unmarshal(goldenJSON, &o.golden); err != nil {
			fmt.Fprintf(stderr, "bench: golden.json: %v\n", err)
			return 1
		}
	}
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, w := range selected {
		r := measure(w, o)
		printReport(stdout, r, o)
		if o.trace {
			path := filepath.Join(*traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
			if err := r.tr.write(path); err != nil {
				fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "  trace: %d spans written to %s\n", len(r.tr.spans), path)
		}
		line.Attempted += r.attempted
		line.Failed += r.failed
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		for name, v := range r.metrics(o.trace) {
			line.Metrics[prefix+name] = v
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metrics returns the result line's metrics: the end-to-end medians of an
// untraced run, or the per-layer values of a traced one.
func (r *report) metrics(traced bool) map[string]metricValue {
	out := map[string]metricValue{}
	if traced {
		for _, m := range perLayer {
			out[m.name] = metricValue{r.layer[m.name], m.unit}
		}
		return out
	}
	for _, m := range endToEnd {
		out[m.name] = metricValue{median(r.e2e[m.name]), m.unit}
	}
	return out
}

// maxProblems bounds how many failure messages a report prints.
const maxProblems = 10

func printReport(w io.Writer, r *report, o options) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s run: %d untraced + %d traced timed passes (+1 warm)  ops attempted=%d failed=%d\n",
		r.w.name, o.seed, mode, r.untraced, r.traced, r.attempted, r.failed)
	row := func(name string, xs []float64, unit string) {
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g n=%-4d %s\n", name, median(xs), q1, q3, len(xs), unit)
	}
	fmt.Fprintf(w, "  end to end (untraced passes; work = simulated %s):\n", r.w.work)
	for _, m := range endToEnd {
		row(m.name, r.e2e[m.name], m.unit)
	}
	fmt.Fprintf(w, "  wall_s per pass: %.4g\n", r.e2e["wall_s"])
	fmt.Fprintf(w, "  unscaled host times (times above are scaled to a %v reference loop):\n", refNominal)
	row("wall_s", r.host["wall_s"], "s")
	row("setup_s", r.host["setup_s"], "s")
	row("reference_ms", r.host["reference_ms"], "ms")
	if o.trace {
		row("wall_s (traced passes)", r.tracedWall, "s")
		fmt.Fprintf(w, "  per layer (op.tail_us is %s of n=%d op spans):\n", r.tailLabel, r.opSamples)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-36s %-12.6g %s\n", m.name, r.layer[m.name], m.unit)
		}
		names := make([]string, 0, len(r.detail))
		for name := range r.detail {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %s layers (traced passes):\n", r.w.name)
		for _, name := range names {
			s := r.detail[name]
			label, v := tail(s.xs)
			fmt.Fprintf(w, "  %-36s p50 %-12.6g %-5s %-12.6g n=%-5d %s\n", name, median(s.xs), label, v, len(s.xs), s.unit)
		}
	}
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Fprintf(w, "  ... %d more problems\n", len(r.problems)-maxProblems)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

// updateGolden runs one pass of every workload at the default seed and
// full scale and rewrites golden.json with their digests. It refuses when
// any op fails, so a broken build cannot bless its own output.
func updateGolden(stdout io.Writer) error {
	path, err := goldenPath()
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, w := range workloads {
		p, err := w.setup(defaultSeed, false, nil)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		p.run(newClock(nil))
		out := p.check(nil)
		if out.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %s", w.name, out.failed, out.ops, strings.Join(out.problems, "; "))
		}
		digests[w.name] = hex.EncodeToString(out.digest[:])
		fmt.Fprintf(stdout, "%s %s\n", w.name, digests[w.name])
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// goldenPath finds golden.json from the repository root or from bench/.
func goldenPath() (string, error) {
	for _, p := range []string{filepath.Join("bench", "golden.json"), "golden.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
	}
	return "", fmt.Errorf("golden.json not found; run from the repository root or bench/")
}

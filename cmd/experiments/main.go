// Command experiments regenerates the paper's evaluation tables and
// figures on the simulated substrate and prints them as text tables.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-parallel N] [-cache dir] [-out file]
//	            [-run all|fig1|fig2|fig3|fig7|fig9mc|fig9silo|fig10|table1|fig11|fig12|fig13a|fig13b|sens]
//
// Independent simulation runs execute on a worker pool (-parallel, which
// never changes output bytes, only wall-clock time) and can be memoized
// in a content-addressed cache (-cache). cmd/bench times a quick fig9
// sweep sequentially and in parallel and gates on identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vessel/internal/experiments"
	"vessel/internal/harness/cliflags"
	"vessel/internal/obs"
)

func main() {
	quick := cliflags.Quick()
	seed := cliflags.Seed(42)
	parallel := cliflags.Parallel()
	cacheDir := cliflags.CacheDir()
	outPath := cliflags.Out()
	run := flag.String("run", "all", "which experiment(s) to run (comma-separated)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	traceOut := flag.String("trace", "", "write the observability span timeline to this file (convert with traceconv)")
	obsOut := flag.String("obs", "", "write the observability bench report (profile + metrics) to this JSON file")
	flag.Parse()

	exec, err := cliflags.Exec(*parallel, *cacheDir)
	if err != nil {
		os.Exit(cliflags.UsageErr("experiments", err))
	}
	out, closeOut, err := cliflags.OutWriter(*outPath)
	if err != nil {
		os.Exit(cliflags.UsageErr("experiments", err))
	}

	results := map[string]any{}
	emit := func(name string, v fmt.Stringer) {
		if *asJSON {
			results[name] = v
			return
		}
		fmt.Fprintln(out, v)
	}
	defer func() {
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(results); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(cliflags.ExitFailure)
			}
		}
		if err := closeOut(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(cliflags.ExitFailure)
		}
	}()

	o := experiments.Options{Seed: *seed, Quick: *quick, Exec: exec}
	if *traceOut != "" || *obsOut != "" {
		// Tracing accumulates spans in one shared observer: runs must
		// stay sequential and uncached (Options.exec enforces this).
		o.Obs = obs.New(0)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }
	fail := func(name string, err error) {
		closeOut()
		cliflags.Fail("experiments: "+name, err)
	}

	if sel("fig1") {
		f, err := experiments.Figure1(o)
		if err != nil {
			fail("fig1", err)
		}
		emit("fig1", f)
	}
	if sel("fig2") {
		f, err := experiments.Figure2(o)
		if err != nil {
			fail("fig2", err)
		}
		emit("fig2", f)
	}
	if sel("fig3") {
		emit("fig3", experiments.Figure3())
	}
	if sel("fig7") {
		f, err := experiments.Figure7(o)
		if err != nil {
			fail("fig7", err)
		}
		emit("fig7", f)
	}
	if sel("fig9mc") {
		f, err := experiments.Figure9(o, "memcached")
		if err != nil {
			fail("fig9mc", err)
		}
		emit("fig9mc", f)
	}
	if sel("fig9silo") {
		f, err := experiments.Figure9(o, "silo")
		if err != nil {
			fail("fig9silo", err)
		}
		emit("fig9silo", f)
	}
	if sel("fig10") {
		f, err := experiments.Figure10(o)
		if err != nil {
			fail("fig10", err)
		}
		emit("fig10", f)
	}
	if sel("table1") {
		t, err := experiments.RunTable1(o, 0)
		if err != nil {
			fail("table1", err)
		}
		emit("table1", t)
	}
	if sel("fig11") {
		f, err := experiments.Figure11(o)
		if err != nil {
			fail("fig11", err)
		}
		emit("fig11", f)
	}
	if sel("fig12") {
		f, err := experiments.Figure12(o)
		if err != nil {
			fail("fig12", err)
		}
		emit("fig12", f)
	}
	if sel("fig13a") {
		f, err := experiments.Figure13a(o)
		if err != nil {
			fail("fig13a", err)
		}
		emit("fig13a", f)
	}
	if sel("fig13b") {
		f, err := experiments.Figure13b(o)
		if err != nil {
			fail("fig13b", err)
		}
		emit("fig13b", f)
	}
	if sel("sens") {
		f, err := experiments.RunSensitivity(o)
		if err != nil {
			fail("sens", err)
		}
		emit("sens", f)
	}

	if *cacheDir != "" {
		hits, misses, puts := exec.Cache.Stats()
		fmt.Fprintf(os.Stderr, "experiments: cache %s: %d hits, %d misses, %d puts\n",
			*cacheDir, hits, misses, puts)
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, o.Obs.WriteText); err != nil {
			fail("trace", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: span timeline written to %s (%d spans)\n",
			*traceOut, o.Obs.SpanCount())
	}
	if *obsOut != "" {
		if err := writeTo(*obsOut, o.Obs.WriteBenchJSON); err != nil {
			fail("obs", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: observability report written to %s\n", *obsOut)
	}
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package cliflags unifies the command-line surface shared by the
// repository's drivers (experiments, conformancebench, chaosbench,
// vesselsim): one spelling for -seed/-quick/-parallel/-cache/-out and
// one set of exit codes (harness.NewExecutor turns the parallel/cache
// flags into an executor). Keeping the flag definitions here means
// every tool documents the same contract — in particular that -parallel
// changes wall-clock time only, never output bytes.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vessel/internal/harness"
)

// Exit codes shared by every driver.
const (
	// ExitOK: every run and oracle passed.
	ExitOK = 0
	// ExitFailure: a run failed or an oracle found a violation.
	ExitFailure = 1
	// ExitUsage: bad flags or undecodable input.
	ExitUsage = 2
)

// Seed registers the shared -seed flag with the given default.
func Seed(def uint64) *uint64 {
	return flag.Uint64("seed", def, "simulation seed")
}

// Quick registers the shared -quick flag.
func Quick() *bool {
	return flag.Bool("quick", false, "shrink durations and sweep density (CI-friendly)")
}

// Parallel registers the shared -parallel flag. The default is the
// host's usable width; 1 forces sequential execution. Output bytes are
// identical at every setting — parallelism only changes wall-clock time.
func Parallel() *int {
	return flag.Int("parallel", harness.DefaultParallel(),
		"worker-pool width for independent runs (output is byte-identical at any width)")
}

// CacheDir registers the shared -cache flag (empty disables caching).
func CacheDir() *string {
	return flag.String("cache", "",
		"content-addressed run-cache directory (empty = no caching)")
}

// Out registers the shared -out flag (empty means stdout).
func Out() *string {
	return flag.String("out", "", "write the report to this file instead of stdout")
}

// Fail prints "tool: err" to stderr and exits with ExitFailure.
func Fail(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitFailure)
}

// UsageErr prints "tool: err" to stderr and returns ExitUsage, for
// drivers that funnel exit codes through one os.Exit call.
func UsageErr(tool string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	return ExitUsage
}

// OutWriter resolves the -out flag: an opened file when path is
// non-empty, os.Stdout otherwise. close flushes and closes the file (a
// no-op for stdout) and must be called even on error paths.
func OutWriter(path string) (w io.Writer, close func() error, err error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

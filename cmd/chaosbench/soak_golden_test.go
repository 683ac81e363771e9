package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the soak golden files")

// TestSoakCanonicalGolden pins the self-healing cluster's canonical
// report, byte for byte, for the soak scenario at plan seeds 1-4 under
// the default -steps/-quantum/-random. The in-process double run only
// proves a build agrees with itself; these files prove a refactor of the
// supervision loop left every event, MTTR sample and counter where it
// was. Run with -update to rebless after an intentional change.
func TestSoakCanonicalGolden(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, _, err := soakCluster(seed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(*steps, *quantum)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", fmt.Sprintf("soak_seed%d.golden", seed)), rep.Canonical())
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (%d vs %d bytes); run with -update after intentional changes\n--- got ---\n%s",
			path, len(got), len(want), got)
	}
}

package conformance

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/vessel"
)

// goldenRun executes the fixed-seed VESSEL scenario with the observer
// attached and renders the two export formats whose bytes we pin.
func goldenRun(t *testing.T) (chrome, collapsed []byte) {
	t.Helper()
	cfg := obsConfig(23)
	if _, err := (vessel.Simulator{}).Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), []byte(cfg.Obs.Profile().Collapsed())
}

// TestObsGoldenOutput pins the Chrome trace JSON and collapsed-stack
// bytes of a fixed-seed VESSEL run. Any change to event ordering,
// export formatting, or simulation behaviour shows up as a golden
// diff. Run with -update to rebless after an intentional change.
func TestObsGoldenOutput(t *testing.T) {
	chrome, collapsed := goldenRun(t)
	goldens := []struct {
		path string
		got  []byte
	}{
		{filepath.Join("testdata", "obs_golden_chrome.json"), chrome},
		{filepath.Join("testdata", "obs_golden_collapsed.txt"), collapsed},
	}
	for _, g := range goldens {
		checkGolden(t, g.path, g.got)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(chrome)); err != nil {
		t.Fatalf("golden chrome trace fails validation: %v", err)
	}
}

// TestObsGoldenAcrossGOMAXPROCS: output bytes are identical whether the
// runtime schedules test goroutines on one OS thread or many. The
// simulation is single-goroutine, so this pins the absence of any
// map-iteration or scheduling nondeterminism in the export path.
func TestObsGoldenAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	c1, s1 := goldenRun(t)
	runtime.GOMAXPROCS(prev)
	if prev == 1 && runtime.NumCPU() > 1 {
		runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
	}
	c2, s2 := goldenRun(t)
	if !bytes.Equal(c1, c2) {
		t.Error("chrome trace differs between GOMAXPROCS settings")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("collapsed stacks differ between GOMAXPROCS settings")
	}
}

package conformance

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with the committed file at path and reports
// the first line that differs. Run with -update to rebless every golden
// after an intentional change.
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
	matchGolden(t, path, got)
}

// matchGolden fails unless got equals the committed file at path; unlike
// checkGolden it never writes the file.
func matchGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
		line++
	}
	var g, w []byte
	if line < len(gl) {
		g = gl[line]
	}
	if line < len(wl) {
		w = wl[line]
	}
	t.Errorf("%s differs from golden (%d vs %d bytes) at line %d; run with -update after intentional changes\n got: %s\nwant: %s",
		path, len(got), len(want), line+1, g, w)
}

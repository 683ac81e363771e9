package experiments

import (
	"os"
	"testing"
)

// TestFigure7Golden pins the rendered Figure 7 exhibit at seed 42, full
// fidelity: both schedulers' core strips and the application-work
// fractions. The golden is the Figure 7 block of experiments_full.txt.
func TestFigure7Golden(t *testing.T) {
	f, err := Figure7(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig7.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != string(want) {
		t.Fatalf("Figure 7 diverges from testdata/fig7.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

package memband

import (
	"math"
	"testing"

	"vessel/internal/sim"
)

func cfg() Config {
	return Config{
		Duration:  50 * sim.Millisecond,
		Seed:      1,
		DemandGBs: 12,
		MemFrac:   0.7,
	}
}

func TestConfigValidate(t *testing.T) {
	c := cfg()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Costs == nil {
		t.Fatal("defaults not filled")
	}
	bad := []Config{
		{Duration: 0, DemandGBs: 1, MemFrac: 0.5},
		{Duration: 1, DemandGBs: 0, MemFrac: 0.5},
		{Duration: 1, DemandGBs: 1, MemFrac: 0},
		{Duration: 1, DemandGBs: 1, MemFrac: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if n := cfg().NaturalGBs(); math.Abs(n-8.4) > 1e-9 {
		t.Fatalf("natural = %v", n)
	}
}

func TestVesselTracksTargetsAccurately(t *testing.T) {
	// Figure 13b's VESSEL line: measured ≈ target across the sweep.
	v := Vessel{}
	for _, target := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		m, err := v.Regulate(target, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if m.ErrorFrac() > 0.08 {
			t.Errorf("target %.0f%%: actual %.2f vs target %.2f GB/s (err %.1f%%)",
				target*100, m.ActualGBs, m.TargetGBs, m.ErrorFrac()*100)
		}
	}
}

func TestMBAOvershootsAtLowSettings(t *testing.T) {
	// Figure 13b: MBA delivers far more bandwidth than requested at low
	// throttle levels.
	m := MBA{}
	low, err := m.Regulate(0.1, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if low.ActualGBs < 2.5*low.TargetGBs {
		t.Fatalf("MBA at 10%%: actual %.2f should be ≫ target %.2f", low.ActualGBs, low.TargetGBs)
	}
	full, err := m.Regulate(1.0, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.ActualGBs-cfg().NaturalGBs()) > 1e-9 {
		t.Fatalf("MBA at 100%% should be natural: %v", full.ActualGBs)
	}
	// Monotone in the setting.
	prev := -1.0
	for _, s := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mm, _ := m.Regulate(s, cfg())
		if mm.ActualGBs <= prev {
			t.Fatalf("MBA curve not monotone at %.1f", s)
		}
		prev = mm.ActualGBs
	}
}

func TestCgroupCFSIsWorkConserving(t *testing.T) {
	// Figure 13b: CFS shares impose no cap on an otherwise idle machine.
	g := CgroupCFS{}
	for _, target := range []float64{0.1, 0.5, 1.0} {
		m, err := g.Regulate(target, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if m.ActualGBs < 0.95*cfg().NaturalGBs() {
			t.Fatalf("CFS shares at %.0f%%: actual %.2f, expected ~natural %.2f",
				target*100, m.ActualGBs, cfg().NaturalGBs())
		}
	}
}

func TestAccuracyOrdering(t *testing.T) {
	// The headline: VESSEL strictly more accurate than MBA and CFS at a
	// 30% target.
	c := cfg()
	v, _ := Vessel{}.Regulate(0.3, c)
	m, _ := MBA{}.Regulate(0.3, c)
	g, _ := CgroupCFS{}.Regulate(0.3, c)
	if !(v.ErrorFrac() < m.ErrorFrac() && m.ErrorFrac() < g.ErrorFrac()) {
		t.Fatalf("accuracy ordering broken: VESSEL %.3f, MBA %.3f, CFS %.3f",
			v.ErrorFrac(), m.ErrorFrac(), g.ErrorFrac())
	}
}

func TestRegulatorNames(t *testing.T) {
	for _, r := range []Regulator{Vessel{}, MBA{}, CgroupCFS{}} {
		if r.Name() == "" {
			t.Fatal("empty name")
		}
		if _, err := r.Regulate(0.5, Config{}); err == nil {
			t.Fatalf("%s accepted invalid config", r.Name())
		}
	}
}

package harness

import (
	"strings"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sim"
)

func baseSpec() RunSpec {
	return RunSpec{
		Scheduler:  "VESSEL",
		Seed:       42,
		Cores:      8,
		DurationNs: int64(5 * sim.Millisecond),
		WarmupNs:   int64(1 * sim.Millisecond),
		Apps: []AppSpec{
			{Name: "mc", Kind: "L", Dist: "memcached", LoadFrac: 0.5},
			{Name: "bg", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
		},
	}
}

// TestHashChangesWithEveryAxis: the content hash must move when any
// field of the spec moves — otherwise the cache returns a stale result
// for a changed cell.
func TestHashChangesWithEveryAxis(t *testing.T) {
	base := baseSpec()
	h0 := base.Hash()
	if base.Hash() != h0 {
		t.Fatal("hash is not stable across calls")
	}

	mutations := map[string]func(*RunSpec){
		"scheduler": func(s *RunSpec) { s.Scheduler = "Caladan" },
		"seed":      func(s *RunSpec) { s.Seed = 43 },
		"cores":     func(s *RunSpec) { s.Cores = 4 },
		"duration":  func(s *RunSpec) { s.DurationNs++ },
		"warmup":    func(s *RunSpec) { s.WarmupNs++ },
		"bw-target": func(s *RunSpec) { s.BWTargetFrac = 0.5 },
		"app-load":  func(s *RunSpec) { s.Apps[0].LoadFrac = 0.6 },
		"app-name":  func(s *RunSpec) { s.Apps[0].Name = "mc2" },
		"app-burst": func(s *RunSpec) { s.Apps[0].Burst = &BurstSpec{OnUs: 100, OffUs: 100, Factor: 2} },
		"app-prio":  func(s *RunSpec) { s.Apps[1].Priority = 3 },
		"costs": func(s *RunSpec) {
			cm := cpu.Default()
			cm.WrPkruCycles++
			s.Costs = cm
		},
	}
	seen := map[string]string{h0: "base"}
	for name, mutate := range mutations {
		s := baseSpec()
		s.Apps = append([]AppSpec(nil), s.Apps...) // deep enough for these mutations
		mutate(&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("axis %q: hash collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestHashEpochSeparatesSchedulers: two specs differing only in scheduler
// must hash apart even before the epoch prefix, and HashKey itself must
// separate kinds and epochs.
func TestHashKeyKindAndEpoch(t *testing.T) {
	key := struct {
		A int `json:"a"`
	}{7}
	h1 := HashKey("table1", 1, key)
	if h1 != HashKey("table1", 1, key) {
		t.Fatal("HashKey not deterministic")
	}
	if h1 == HashKey("memband", 1, key) {
		t.Fatal("kind does not separate hashes")
	}
	if h1 == HashKey("table1", 2, key) {
		t.Fatal("epoch does not separate hashes")
	}
}

func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	if len(names) != 6 {
		t.Fatalf("scheduler names = %v", names)
	}
	for _, name := range names {
		s, err := SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("registry name %q resolves to scheduler %q", name, s.Name())
		}
	}
	if _, err := SchedulerByName("vessel"); err != nil {
		t.Fatal("lookup should be case-insensitive:", err)
	}
	if _, err := SchedulerByName("nope"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown scheduler error should list known names, got %v", err)
	}
}

func TestAxesPlanComposition(t *testing.T) {
	var got []string
	p := Axes{
		Schedulers: []string{"VESSEL", "Linux"},
		Loads:      []float64{0.2, 0.8},
		Seeds:      []uint64{1},
		Build: func(scheduler string, load float64, seed uint64) (RunSpec, bool) {
			if scheduler == "Linux" && load > 0.5 {
				return RunSpec{}, false // out of envelope: skipped
			}
			s := baseSpec()
			s.Scheduler = scheduler
			s.Apps[0].LoadFrac = load
			s.Seed = seed
			got = append(got, scheduler)
			return s, true
		},
	}.Plan()
	if p.Len() != 3 {
		t.Fatalf("plan length = %d, want 3 (one cell skipped)", p.Len())
	}
	// Nesting order: schedulers outermost.
	if p.Specs[0].Scheduler != "VESSEL" || p.Specs[2].Scheduler != "Linux" {
		t.Fatalf("unexpected order: %v", got)
	}
}

func TestSpecValidateAndConfig(t *testing.T) {
	s := baseSpec()
	cfg := s.Config()
	if len(cfg.Apps) != 2 || cfg.Seed != 42 || cfg.Cores != 8 {
		t.Fatalf("config: %+v", cfg)
	}
	// The L-app's rate scales with the spec's core count.
	if cfg.Apps[0].RateK <= 0 {
		t.Fatal("L-app rate not derived")
	}
	// Apps are built fresh per call: two runs must never share state.
	cfg2 := s.Config()
	if cfg.Apps[0] == cfg2.Apps[0] {
		t.Fatal("Config reuses workload.App values across runs")
	}
	// Config must not alias the default cost model when Costs is nil.
	cfg.Costs.WrPkruCycles++
	if cpu.Default().WrPkruCycles == cfg.Costs.WrPkruCycles {
		t.Fatal("Config aliases the shared default cost model")
	}

	bad := baseSpec()
	bad.Apps[0].LoadFrac = -1
	if err := bad.Apps[0].Validate(1000); err == nil {
		t.Fatal("negative load accepted")
	}
	if err := s.Apps[0].Validate(1000); err != nil {
		t.Fatal(err)
	}
}

package conformance

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/smas"
	"vessel/internal/vessel"
	"vessel/internal/vpkey"
)

// vpkeyWorker is a park-loop worker with a configurable compute burst —
// every gate call pushes through the worker's own stack, so a key whose
// refill went missing would fault on the very first crossing.
func vpkeyWorker(mg *vessel.Manager, name string, work int64) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.Work{N: work})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// vpkeyBattery is one park-loop battery shape: n workers spread over
// the manager's cores, worker i computing base+i*stride instructions
// per crossing, each core run steps instructions timesliced. churn then
// destroys every third worker and reaps.
type vpkeyBattery struct {
	n, cores     int
	base, stride int64
	steps        int
	churn        bool
}

// dense is the standard battery body for the lifecycle oracle tests.
func dense(n int) vpkeyBattery {
	return vpkeyBattery{n: n, cores: 2, base: 200, stride: 37, steps: 40_000, churn: true}
}

// run drives the battery on mg and returns total cycles and parks.
func (b vpkeyBattery) run(t *testing.T, mg *vessel.Manager) (cycles int64, parks uint64) {
	t.Helper()
	for i := 0; i < b.n; i++ {
		name := fmt.Sprintf("w%03d", i)
		if _, err := mg.Launch(name, vpkeyWorker(mg, name, b.base+int64(i)*b.stride), i%b.cores); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
	}
	for core := 0; core < b.cores; core++ {
		if err := mg.Start(core); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.RunTimesliced(core, b.steps, 701); err != nil {
			t.Fatalf("core %d: %v", core, err)
		}
	}
	if b.churn {
		for i := 0; i < b.n; i += 3 {
			if err := mg.Destroy(fmt.Sprintf("w%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for core := 0; core < b.cores; core++ {
			mg.Step(core, 4000)
		}
		if _, err := mg.Reap(); err != nil {
			t.Fatal(err)
		}
	}
	for core := 0; core < b.cores; core++ {
		cycles += mg.Machine().Core(core).Cycles
		p, _ := mg.Domain.CoreStats(core)
		parks += p
	}
	return cycles, parks
}

// vpkeyFingerprint hashes (FNV-64a) the run's event log, per-core
// counters and key-table counters: the witness the vpkey goldens pin.
func vpkeyFingerprint(mg *vessel.Manager, cores int) string {
	h := fnv.New64a()
	io.WriteString(h, mg.Events().String())
	for core := 0; core < cores; core++ {
		parks, preempts := mg.Domain.CoreStats(core)
		fmt.Fprintf(h, "core%d parks=%d preempts=%d cycles=%d\n",
			core, parks, preempts, mg.Machine().Core(core).Cycles)
	}
	if vt := mg.Domain.S.VKeys; vt != nil {
		fmt.Fprintf(h, "vpkey evictions=%d refills=%d retagged=%d\n",
			vt.Evictions, vt.Refills, vt.RetaggedPages)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// long is the long-run battery shape the vpkey gates were measured on.
func long(n, cores int) vpkeyBattery {
	return vpkeyBattery{n: n, cores: cores, base: 200, stride: 17, steps: 200_000}
}

// TestVPkeyWarmCrossingMatchesDirect: with 12 live keys, inside the
// 13-slot budget, virtualization must evict nothing and a gate crossing
// must cost within 5% of the direct-keyed path. (It costs exactly the
// same: the resident fast path re-tags nothing.) Cycles are simulated,
// so the bound is exact.
func TestVPkeyWarmCrossingMatchesDirect(t *testing.T) {
	const maxRatio = 1.05
	perCrossing := func(mg *vessel.Manager, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cycles, parks := long(12, 1).run(t, mg)
		if parks == 0 {
			t.Fatal("warm run recorded no parks")
		}
		return float64(cycles) / float64(parks)
	}
	direct := perCrossing(vessel.NewManager(1, nil))
	mg, err := vessel.NewManagerVirtual(1, nil)
	virt := perCrossing(mg, err)
	if n := mg.Domain.S.VKeys.Evictions; n != 0 {
		t.Errorf("warm run evicted %d keys with only 12 live", n)
	}
	ratio := virt / direct
	if ratio > maxRatio {
		t.Errorf("virtual crossing costs %v cycles vs %v direct: %.3fx > %vx", virt, direct, ratio, maxRatio)
	}
	checkGolden(t, filepath.Join("testdata", "vpkey_warm.golden"), []byte(fmt.Sprintf(
		"direct_cycles_per_crossing=%v virtual_cycles_per_crossing=%v overhead_ratio=%v fingerprint=%s\n",
		direct, virt, ratio, vpkeyFingerprint(mg, 1))))
}

// TestVPkeyLifecycleOracleCleanVirtualRun runs batteries with 3× more
// workers than hardware slots through the lifecycle and event oracles
// and holds the eviction-cost gates: evictions happen, every re-tagged
// page is attributed, no single re-tag exceeds the largest bound region
// (cost is O(region), not O(address space)), and re-tagging is at most
// half of all cycles.
func TestVPkeyLifecycleOracleCleanVirtualRun(t *testing.T) {
	const maxRetagShare = 0.5
	for _, tc := range []struct {
		name   string
		b      vpkeyBattery
		golden string
	}{
		// 40 workers on 13 slots: allocation alone forces evictions, and
		// the timesliced run forces refills at activation.
		{"churn", dense(40), ""},
		{"storm", long(40, 2), "vpkey_storm.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg, err := vessel.NewManagerVirtual(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			cycles, _ := tc.b.run(t, mg)
			vt := mg.Domain.S.VKeys
			if vt.Evictions == 0 || vt.Refills == 0 {
				t.Fatalf("battery did not exercise eviction: evictions=%d refills=%d", vt.Evictions, vt.Refills)
			}
			if vs := CheckVPkeyLifecycle("virtual", mg.Domain.S); len(vs) != 0 {
				t.Fatalf("clean virtual run flagged:\n%v", vs)
			}
			if vs := CheckEvents(mg.Events().Events()); len(vs) != 0 {
				t.Fatalf("event stream flagged:\n%v", vs)
			}
			maxRegion, maxRetag, logged := 0, 0, uint64(0)
			for _, e := range vt.LiveInfo() {
				maxRegion = max(maxRegion, e.Pages)
			}
			for _, r := range vt.RetagLog {
				maxRetag = max(maxRetag, int(r.Pages))
				logged += uint64(r.Pages)
			}
			if vt.RetagDropped == 0 && logged != vt.RetaggedPages {
				t.Errorf("attribution log accounts %d pages, counter says %d", logged, vt.RetaggedPages)
			}
			if maxRetag > maxRegion {
				t.Errorf("one eviction re-tagged %d pages, but the largest region binds %d", maxRetag, maxRegion)
			}
			share := float64(vt.RetaggedPages) * float64(mg.Domain.Machine.Costs.PkeyRetagPage) / float64(cycles)
			if share > maxRetagShare {
				t.Errorf("re-tagging consumed %.1f%% of all cycles, over %v%%", share*100, maxRetagShare*100)
			}
			if tc.golden != "" {
				checkGolden(t, filepath.Join("testdata", tc.golden), []byte(fmt.Sprintf(
					"evictions=%d refills=%d retagged_pages=%d retag_cycle_share=%v max_pages_per_event=%d fingerprint=%s\n",
					vt.Evictions, vt.Refills, vt.RetaggedPages, share, maxRetag, vpkeyFingerprint(mg, tc.b.cores))))
			}
		})
	}
}

func TestVPkeyLifecycleOracleCleanDirectRun(t *testing.T) {
	mg, err := vessel.NewManager(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense(10).run(t, mg)
	if vs := CheckVPkeyLifecycle("direct", mg.Domain.S); len(vs) != 0 {
		t.Fatalf("clean direct run flagged:\n%v", vs)
	}
}

func TestVPkeyLifecycleOracleFlagsLeakedSlot(t *testing.T) {
	for _, mode := range []string{"direct", "virtual"} {
		t.Run(mode, func(t *testing.T) {
			var mg *vessel.Manager
			var err error
			if mode == "virtual" {
				mg, err = vessel.NewManagerVirtual(2, nil)
			} else {
				mg, err = vessel.NewManager(2, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			dense(6).run(t, mg)
			// A lost pkey_free: the allocator holds a key no region (and
			// no table slot) owns.
			if _, err := mg.Domain.S.Keys.Alloc(); err != nil {
				t.Fatal(err)
			}
			vs := CheckVPkeyLifecycle(mode, mg.Domain.S)
			found := false
			for _, v := range vs {
				if v.Oracle == "slot-leak" {
					found = true
				}
			}
			if !found {
				t.Fatalf("leaked key not flagged: %v", vs)
			}
		})
	}
}

func TestVPkeyLifecycleOracleFlagsBogusAttribution(t *testing.T) {
	mg, err := vessel.NewManagerVirtual(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense(20).run(t, mg)
	vt := mg.Domain.S.VKeys
	// Forge a record naming a never-issued virtual key: the attribution
	// audit must notice both the impossible key and the unbalanced sum.
	vt.RetagLog = append(vt.RetagLog, vpkey.Retag{VKey: 9999, Slot: 3, Pages: 7, Reason: vpkey.Evict, Core: 0})
	vs := CheckVPkeyLifecycle("virtual", mg.Domain.S)
	found := false
	for _, v := range vs {
		if v.Oracle == "retag-attribution" {
			found = true
		}
	}
	if !found {
		t.Fatalf("forged attribution not flagged: %v", vs)
	}
}

func TestVPkeyDensityBeyondHardwareKeys(t *testing.T) {
	// The root package's density demo runs 110 uProcesses with
	// destroy/relaunch churn on one virtual-key manager; this pins the
	// same property where the oracles live: far more live keys than
	// hardware slots, all isolation invariants intact.
	for _, tc := range []struct {
		name   string
		b      vpkeyBattery
		golden string
	}{
		{"short", vpkeyBattery{n: 120, cores: 2, base: 150, steps: 60_000}, ""},
		{"bench", long(100, 2), "vpkey_density.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg, err := vessel.NewManagerVirtual(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.b.run(t, mg)
			s := mg.Domain.S
			if got := s.LiveRegionCount(); got != tc.b.n {
				t.Fatalf("live regions = %d, want %d", got, tc.b.n)
			}
			if s.VKeys.Resident() > int(smas.RuntimeKey)-1 {
				t.Fatalf("resident = %d exceeds the hardware slot budget", s.VKeys.Resident())
			}
			vs := CheckVPkeyLifecycle("dense", s)
			if len(vs) != 0 {
				t.Fatalf("dense run flagged:\n%v", vs)
			}
			if tc.golden != "" {
				checkGolden(t, filepath.Join("testdata", tc.golden), []byte(fmt.Sprintf(
					"uprocs=%d resident=%d evictions=%d violations=%d fingerprint=%s\n",
					s.LiveRegionCount(), s.VKeys.Resident(), s.VKeys.Evictions, len(vs), vpkeyFingerprint(mg, tc.b.cores))))
			}
		})
	}
}

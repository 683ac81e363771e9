package conformance

import (
	"fmt"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/vessel"
)

// vpkeyDiffFingerprint runs a seed-parameterized launch/park/destroy/reap
// scenario on a fresh two-core manager in mode and returns a canonical
// byte fingerprint: the full event log plus per-core scheduler and cycle
// counters. The scenario keeps at most 13 keys live, so a virtualized
// manager must take the resident fast path on every crossing — zero
// evictions, zero re-tags — and the fingerprint must match direct mode
// byte for byte.
func vpkeyDiffFingerprint(t *testing.T, mode cpu.ExecMode, virtual bool, seed uint64) string {
	t.Helper()
	var mg *vessel.Manager
	var err error
	if virtual {
		mg, err = vessel.NewManagerVirtual(2, nil)
	} else {
		mg, err = vessel.NewManager(2, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	mg.Machine().SetExecMode(mode)
	n := 3 + int(seed%11) // 3..13 live keys: under the slot budget
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d-%02d", seed, i)
		work := 200 + int64(seed)*13 + int64(i)*37
		if _, err := mg.Launch(name, vpkeyWorker(mg, name, work), i%2); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
	}
	for core := 0; core < 2; core++ {
		if err := mg.Start(core); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.RunTimesliced(core, 30_000, 701); err != nil {
			t.Fatalf("core %d: %v", core, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := mg.Destroy(fmt.Sprintf("d%d-%02d", seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	for core := 0; core < 2; core++ {
		mg.Step(core, 3000)
	}
	if _, err := mg.Reap(); err != nil {
		t.Fatal(err)
	}
	checkExecMode(t, mg.Machine(), mode)

	if virtual {
		if ev := mg.Domain.S.VKeys.Evictions; ev != 0 {
			t.Fatalf("≤13 live keys must never evict, saw %d evictions", ev)
		}
	}

	fp := mg.Events().String()
	for core := 0; core < 2; core++ {
		parks, preempts := mg.Domain.CoreStats(core)
		fp += fmt.Sprintf("core%d parks=%d preempts=%d cycles=%d\n",
			core, parks, preempts, mg.Machine().Core(core).Cycles)
	}
	return fp
}

// TestVPkeyDifferential pins the central compatibility claim of the
// virtualization layer: while the live-key count fits the hardware,
// virtual mode is behaviorally invisible — the event stream, the
// scheduler counters, and the cycle counts are byte-identical to direct
// mode. TestExecModesByteIdentical repeats both arms in the other
// execution modes.
func TestVPkeyDifferential(t *testing.T) {
	t.Parallel()
	for _, seed := range vpkeyDiffSeeds() {
		direct := vpkeyDiffFingerprint(t, cpu.Fused, false, seed)
		if virtual := vpkeyDiffFingerprint(t, cpu.Fused, true, seed); virtual != direct {
			t.Fatalf("seed %d: virtual fingerprint diverged from direct\n--- direct ---\n%s\n--- virtual ---\n%s",
				seed, direct, virtual)
		}
	}
}

// vpkeyDiffSeeds are the seeds the virtualization differential sweeps.
func vpkeyDiffSeeds() []uint64 {
	if testing.Short() {
		return []uint64{1, 2}
	}
	return []uint64{1, 2, 3, 4, 5}
}

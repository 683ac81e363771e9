package conformance

import (
	"path/filepath"
	"slices"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/selfheal"
)

// TestExecModesByteIdentical reruns layer-1 scenarios — scenarios whose
// cores execute simulated instructions — with every machine in the
// PerInstr and Slow execution modes, and requires the bytes the default
// Fused mode commits to: soak seed 1 (which fences cores and restarts a
// domain) and the virtual-key thrash storm against their goldens, and the
// direct and virtual virtualization-differential fingerprints against the
// Fused direct run. The TLB, the decoded-fetch cache and superblock fusion
// must be pure mechanism. Every scenario also checks that the mode
// reached every core it ran, restarted domains included, so a mode that
// never took effect cannot pass.
func TestExecModesByteIdentical(t *testing.T) {
	seeds := vpkeyDiffSeeds()
	fused := make([]string, len(seeds))
	for i, seed := range seeds {
		fused[i] = vpkeyDiffFingerprint(t, cpu.Fused, false, seed)
	}
	for _, tc := range []struct {
		name string
		mode cpu.ExecMode
	}{{"PerInstr", cpu.PerInstr}, {"Slow", cpu.Slow}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, _ := soakRun(t, 1, tc.mode)
			if rep.DomainRestarts == 0 {
				t.Error("soak seed 1 restarted no domain")
			}
			matchGolden(t, filepath.Join("testdata", "soak", "soak_seed1.golden"), rep.Canonical())
			_, rep = runThrashStorm(t, tc.mode)
			matchGolden(t, filepath.Join("testdata", "vpkey_thrash_storm.golden"), rep.Canonical())
			for i, seed := range seeds {
				for _, virtual := range []bool{false, true} {
					if got := vpkeyDiffFingerprint(t, tc.mode, virtual, seed); got != fused[i] {
						t.Errorf("seed %d virtual=%v: fingerprint differs from Fused direct\n--- Fused ---\n%s\n--- %s ---\n%s",
							seed, virtual, fused[i], tc.name, got)
					}
				}
			}
		})
	}
}

// inExecMode puts every domain of c in mode before it runs. Call the
// returned check after the run with the report's domain restarts: it
// fails unless it saw every incarnation of every domain and each ran in
// mode.
func inExecMode(t *testing.T, c *selfheal.Cluster, domains int, mode cpu.ExecMode) func(restarts int) {
	t.Helper()
	var seen []*cpu.Machine
	for d := 0; d < domains; d++ {
		m := c.Manager(d).Machine()
		m.SetExecMode(mode)
		seen = append(seen, m)
	}
	return func(restarts int) {
		t.Helper()
		for d := 0; d < domains; d++ {
			if m := c.Manager(d).Machine(); !slices.Contains(seen, m) {
				seen = append(seen, m)
			}
		}
		if len(seen) != domains+restarts {
			t.Fatalf("checked %d machines, but %d domains and %d restarts built %d",
				len(seen), domains, restarts, domains+restarts)
		}
		for _, m := range seen {
			checkExecMode(t, m, mode)
		}
	}
}

// checkExecMode fails unless m's cores ran in mode: a Fused machine fills
// superblocks, and no core of a PerInstr or Slow machine ever does.
func checkExecMode(t *testing.T, m *cpu.Machine, mode cpu.ExecMode) {
	t.Helper()
	if got := m.ExecMode(); got != mode {
		t.Fatalf("machine in mode %d, want %d", got, mode)
	}
	var total uint64
	for i := 0; i < m.NumCores(); i++ {
		fills, _, _ := m.Core(i).SuperblockStats()
		if mode != cpu.Fused && fills != 0 {
			t.Errorf("core %d filled %d superblocks in mode %d", i, fills, mode)
		}
		total += fills
	}
	if mode == cpu.Fused && total == 0 {
		t.Errorf("no core of a Fused machine filled a superblock (%d cores)", m.NumCores())
	}
}

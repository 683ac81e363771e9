package conformance

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/vessel"
)

// runThrashStorm builds the eviction-storm scenario — two dozen
// uProcesses sharing one virtualized two-core domain while PkeyThrash faults
// strip every unpinned key back to the fence, plus a core stall to
// drive detection and recovery under the storm — and runs it to
// completion with the domain in mode. The scenario is fully deterministic
// (fixed seed, fixed injection times), so two calls must produce
// identical reports.
func runThrashStorm(t *testing.T, mode cpu.ExecMode) (*selfheal.Cluster, *selfheal.Report) {
	t.Helper()
	c, err := selfheal.New(selfheal.Config{Domains: 1, CoresPerDomain: 2, VirtualKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := inExecMode(t, c, 1, mode)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("storm%02d", i)
		err := c.AddWorker(0, name, func(mg *vessel.Manager) *smas.Program {
			return vpkeyWorker(mg, name, 200+int64(i)*17)
		}, i%2, vessel.RestartPolicy{})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.InjectFaults(0, faultinject.Plan{
		Seed: 7,
		Faults: []faultinject.Fault{
			{Kind: faultinject.PkeyThrash, At: sim.Time(5 * sim.Microsecond)},
			{Kind: faultinject.PkeyThrash, At: sim.Time(15 * sim.Microsecond)},
			{Kind: faultinject.PkeyThrash, At: sim.Time(30 * sim.Microsecond)},
			{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(40 * sim.Microsecond)},
		},
		Random:       6,
		RandomKinds:  []faultinject.Kind{faultinject.PkeyThrash},
		RandomCores:  2,
		RandomWindow: 60 * sim.Microsecond,
	})
	rep, err := c.Run(400_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	ran(rep.DomainRestarts)
	return c, rep
}

func TestVPkeyEvictionStormSelfHeals(t *testing.T) {
	c, rep := runThrashStorm(t, cpu.Fused)

	// The storm actually happened: keys were stripped and refilled.
	s := c.Manager(0).Domain.S
	if s.VKeys == nil {
		t.Fatal("cluster did not virtualize keys")
	}
	if s.VKeys.Evictions == 0 || s.VKeys.Refills == 0 {
		t.Fatalf("storm did not bite: evictions=%d refills=%d",
			s.VKeys.Evictions, s.VKeys.Refills)
	}
	if n := rep.Events.CountByName("inject.pkeythrash"); n < 3 {
		t.Fatalf("only %d thrash injections recorded, want the 3 deterministic ones", n)
	}

	// The self-healing oracles hold under thrashing: the stall was
	// detected and fenced within budget, nothing was lost.
	if vs := CheckSelfHeal("vpkey-thrash", rep, SelfHealExpect{MinFences: 1}); len(vs) != 0 {
		t.Fatalf("self-heal oracles flagged:\n%v", vs)
	}
	if rep.MTTR.Count == 0 {
		t.Fatal("no MTTR samples: the stall was never recovered")
	}
	if vs := CheckEvents(rep.Events.Events()); len(vs) != 0 {
		t.Fatalf("event stream flagged:\n%v", vs)
	}

	// The key table itself survived the storm with isolation intact.
	if vs := CheckVPkeyLifecycle("vpkey-thrash", s); len(vs) != 0 {
		t.Fatalf("lifecycle oracles flagged:\n%v", vs)
	}

	// Every worker is still alive on the surviving core.
	for i := 0; i < 24; i++ {
		if _, ok := c.Manager(0).Lookup(fmt.Sprintf("storm%02d", i)); !ok {
			t.Fatalf("worker storm%02d lost to the storm", i)
		}
	}
}

// TestVPkeyEvictionStormDeterministic is the MTTR regression pin: the
// storm scenario's canonical report — every event, every MTTR sample,
// every counter — must be byte-identical across runs, so any change to
// eviction ordering or recovery latency shows up as a diff, not a flake.
func TestVPkeyEvictionStormDeterministic(t *testing.T) {
	_, rep1 := runThrashStorm(t, cpu.Fused)
	_, rep2 := runThrashStorm(t, cpu.Fused)
	c1, c2 := rep1.Canonical(), rep2.Canonical()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("storm scenario nondeterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", c1, c2)
	}
	if rep1.MTTR.Count == 0 {
		t.Fatal("regression baseline has no MTTR samples")
	}
}

// TestVPkeyEvictionStormGolden pins the storm scenario's canonical report
// against a committed file, so a change that shifts every run the same
// way — which the double-run check cannot see — still shows up as a
// diff. Run with -update to rebless after an intentional change.
func TestVPkeyEvictionStormGolden(t *testing.T) {
	_, rep := runThrashStorm(t, cpu.Fused)
	checkGolden(t, filepath.Join("testdata", "vpkey_thrash_storm.golden"), rep.Canonical())
}

package conformance

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/mem"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/vessel"
)

// The soak scenario: a two-domain cluster of supervised park-loop workers
// under all five self-healing fault classes plus seeded Uintr tampering.
const (
	soakDomains     = 2
	soakCoresPerDom = 2
	soakSteps       = 800_000
	soakQuantum     = 400
	soakRandom      = 8 // extra random Uintr faults per domain plan
	soakFirstSeed   = 42
	soakSeeds       = 24
	// soakMTTRBudget is the cluster defaults' detect (500µs) plus
	// restart (500µs) budget.
	soakMTTRBudget = sim.Millisecond
)

func soakParkLoop(mg *vessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// soakCluster builds one seed's scenario: 2 domains × 2 cores, one
// supervised park-loop worker per core, watchdogs armed, and per-domain
// fault plans covering all five self-healing classes.
func soakCluster(planSeed uint64) (*selfheal.Cluster, []*faultinject.Injector, error) {
	c, err := selfheal.New(selfheal.Config{
		Domains:        soakDomains,
		CoresPerDomain: soakCoresPerDom,
		WatchdogSoft:   20_000,
		WatchdogHard:   60_000,
	})
	if err != nil {
		return nil, nil, err
	}
	for dom := 0; dom < soakDomains; dom++ {
		for core := 0; core < soakCoresPerDom; core++ {
			name := fmt.Sprintf("d%dw%d", dom, core)
			err := c.AddWorker(dom, name, func(mg *vessel.Manager) *smas.Program {
				return soakParkLoop(mg, name)
			}, core, vessel.RestartPolicy{})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	// Domain 0 exercises the machine-level classes; domain 1 the
	// policy/interrupt classes. Random legacy tampering rides on both.
	inj0 := c.InjectFaults(0, faultinject.Plan{
		Seed: planSeed,
		Faults: []faultinject.Fault{
			{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.PkeyLeak, At: sim.Time(15 * sim.Microsecond)},
			{Kind: faultinject.DomainCrash, At: sim.Time(50 * sim.Microsecond)},
		},
		Random:       soakRandom,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
		RandomCores:  soakCoresPerDom,
		RandomWindow: 300 * sim.Microsecond,
	})
	inj1 := c.InjectFaults(1, faultinject.Plan{
		Seed: planSeed + 1_000_003,
		Faults: []faultinject.Fault{
			{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.UintrStorm, At: sim.Time(20 * sim.Microsecond), Delay: 20 * sim.Microsecond},
		},
		Random:       soakRandom,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.UintrStorm},
		RandomCores:  soakCoresPerDom,
		RandomWindow: 100 * sim.Microsecond,
	})
	return c, []*faultinject.Injector{inj0, inj1}, nil
}

// soakRun runs one seed's scenario and merges its injectors' counters.
func soakRun(t *testing.T, seed uint64) (*selfheal.Report, *stats.Counters) {
	t.Helper()
	c, injs, err := soakCluster(seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(soakSteps, soakQuantum)
	if err != nil {
		t.Fatal(err)
	}
	fired := stats.NewCounters()
	for _, inj := range injs {
		fired.Merge(inj.Counters)
	}
	return rep, fired
}

// TestSoakCanonicalGolden is the cluster self-healing soak. Every seed
// runs twice and must recover deterministically (byte-identical canonical
// reports), conformance-clean (CheckSelfHeal reports nothing, with every
// recovery path exercised), and within soakMTTRBudget. Across the sweep
// of seeds 42-65 every one of the five fault classes must fire, and the
// sweep's totals render into testdata/soak/summary.golden.
//
// Seeds 1-4 also pin the canonical report byte for byte: the double run
// only proves a build agrees with itself; these files prove a refactor of
// the supervision loop left every event, MTTR sample and counter where it
// was. Run with -update to rebless after an intentional change.
func TestSoakCanonicalGolden(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	for s := uint64(soakFirstSeed); s < soakFirstSeed+soakSeeds; s++ {
		seeds = append(seeds, s)
	}
	var (
		fences, restarts, swaps, healed, cancelled int
		mttrSamples                                uint64
		mttrMax, mttrP99                           int64
		swept                                      int
	)
	fired := stats.NewCounters()
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, ctr := soakRun(t, seed)
			again, _ := soakRun(t, seed)
			if !bytes.Equal(rep.Canonical(), again.Canonical()) {
				t.Error("two identical runs produced different canonical reports")
			}
			vs := CheckSelfHeal(fmt.Sprintf("soak-seed-%d", seed),
				selfheal.Config{}, // cluster defaults: 500µs detect + 500µs restart
				rep, SelfHealExpect{MinFences: 1, MinRestarts: 1, MinPolicySwaps: 1, MinPkeysHealed: 1})
			if len(vs) != 0 {
				t.Errorf("self-heal oracles flagged:\n%v", vs)
			}
			if rep.MTTR.Max > int64(soakMTTRBudget) {
				t.Errorf("MTTR max %dns over the %v budget", rep.MTTR.Max, soakMTTRBudget)
			}
			if seed <= 4 {
				checkGolden(t, filepath.Join("testdata", "soak", fmt.Sprintf("soak_seed%d.golden", seed)), rep.Canonical())
				return
			}
			swept++
			fences += rep.Fences
			restarts += rep.DomainRestarts
			swaps += rep.PolicySwaps
			healed += rep.PkeysHealed
			cancelled += rep.EventsCancelled
			mttrSamples += rep.MTTR.Count
			mttrMax = max(mttrMax, rep.MTTR.Max)
			mttrP99 = max(mttrP99, rep.MTTR.P99)
			fired.Merge(ctr)
		})
	}
	if swept != soakSeeds {
		return // seeds were filtered out or failed before their gates
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first_seed=%d seeds=%d steps=%d quantum=%d domains=%d cores_per_domain=%d\n",
		soakFirstSeed, soakSeeds, soakSteps, soakQuantum, soakDomains, soakCoresPerDom)
	fmt.Fprintf(&b, "fences=%d domain_restarts=%d policy_swaps=%d pkeys_healed=%d events_cancelled=%d\n",
		fences, restarts, swaps, healed, cancelled)
	fmt.Fprintf(&b, "mttr_samples=%d mttr_max_ns=%d mttr_p99_ns=%d mttr_budget_ns=%d\n",
		mttrSamples, mttrMax, mttrP99, int64(soakMTTRBudget))
	// Every class must have fired somewhere in the sweep: a plan that
	// silently skips a class proves nothing about recovering from it.
	for _, kind := range []string{"corestall", "domaincrash", "policypanic", "uintr.storm", "pkeyleak"} {
		n := fired.Get("inject." + kind)
		if n == 0 {
			t.Errorf("fault class %q never fired across the sweep", kind)
		}
		fmt.Fprintf(&b, "fired %s=%d\n", kind, n)
	}
	checkGolden(t, filepath.Join("testdata", "soak", "summary.golden"), []byte(b.String()))
}

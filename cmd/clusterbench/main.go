// Command clusterbench gates the two-level cluster scheduler (DESIGN.md
// §16). It runs a core-auction scenario — half the domains heavy, half
// light, launched in waves so demand shifts while the policy rebalances —
// once per registered cluster policy, and holds three hard gates per cell:
//
//   - conformance: CheckClusterSched replays the full op history against
//     an independent ledger (no double grants, owner-only revokes,
//     conservation, delivery accounting, revoke-before-regrant order);
//   - actuation: every delivered upcall actuated within -actuationbudget
//     of its commit (virtual time);
//   - determinism: the same scenario run twice produces byte-identical
//     canonical reports.
//
// Two more scenarios exercise the policy layer itself: a mid-run hot swap
// (fairshare → uslatency) must commit exactly one swap and keep
// scheduling, and an injected cluster-policy panic must fail over to the
// static failsafe within -mttrbudget. The summary lands in
// BENCH_cluster.json for CI.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vessel"
	"vessel/internal/conformance"
	"vessel/internal/harness/cliflags"
)

var (
	domains      = flag.Int("domains", 4, "scheduling domains competing for the pool")
	cores        = flag.Int("cores", 32, "shared core pool size")
	coresPerNode = flag.Int("corespernode", 8, "NUMA node granularity of the executor caches")
	waves        = flag.Int("waves", 3, "launch waves (demand shifts between waves)")
	heavy        = flag.Int("heavy", 12, "uProcesses per heavy domain per wave")
	light        = flag.Int("light", 2, "uProcesses per light domain per wave")
	rounds       = flag.Int("rounds", 30, "scheduling rounds after the last wave")
	actBudget    = flag.Int64("actuationbudget", int64(50*vessel.Microsecond), "max commit→actuation latency per upcall, virtual ns")
	mttrBudget   = flag.Int64("mttrbudget", int64(100*vessel.Microsecond), "max policy-panic→failsafe-swap latency, virtual ns")
	benchOut     = flag.String("out", "BENCH_cluster.json", "write the benchmark summary JSON here (empty disables)")
)

func parkLoop(m *vessel.Manager) (*vessel.Program, error) {
	return m.NewProgram("loop").Forever(func(b *vessel.ProgramBuilder) {
		b.Compute(500).Park()
	}).Build()
}

// auction builds and runs one core-auction scenario: heavy domains (the
// lower half) launch -heavy uProcesses per wave, light domains -light,
// with scheduling rounds between waves so grants chase the demand.
func auction(policy string, faults *vessel.FaultPlan, run func(s *vessel.ScheduledCluster) error) (*vessel.ScheduledCluster, error) {
	s, err := vessel.NewScheduledCluster(vessel.SchedClusterConfig{
		Domains:      *domains,
		Cores:        *cores,
		CoresPerNode: *coresPerNode,
		Policy:       policy,
		Quantum:      1000,
		Faults:       faults,
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < *waves; w++ {
		for d := 0; d < s.Domains(); d++ {
			n := *light
			if d < s.Domains()/2 {
				n = *heavy
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("w%d-d%d-%d", w, d, i)
				if _, err := s.Launch(d, name, parkLoop); err != nil {
					return nil, fmt.Errorf("launch %s: %w", name, err)
				}
			}
		}
		if err := s.Run(6); err != nil {
			return nil, err
		}
	}
	if err := run(s); err != nil {
		return nil, err
	}
	return s, nil
}

func steady(s *vessel.ScheduledCluster) error { return s.Run(*rounds) }

// drainAndSteady runs half the rounds, destroys every uProcess in domain
// 0 so the now-idle domain yields its cores back to the pool (exercising
// the revoke/rehome path), and runs the rest.
func drainAndSteady(s *vessel.ScheduledCluster) error {
	if err := s.Run(*rounds / 2); err != nil {
		return err
	}
	for w := 0; w < *waves; w++ {
		for i := 0; i < *heavy; i++ {
			if err := s.Destroy(fmt.Sprintf("w%d-d0-%d", w, i)); err != nil {
				return fmt.Errorf("destroy w%d-d0-%d: %w", w, i, err)
			}
		}
	}
	return s.Run(*rounds - *rounds/2)
}

// swapMidRun runs half the rounds, hot-swaps fairshare → uslatency, turns
// the last (light) domain heavy so the swapped-in policy must commit fresh
// grants, and runs the rest.
func swapMidRun(s *vessel.ScheduledCluster) error {
	if err := s.Run(*rounds / 2); err != nil {
		return err
	}
	if err := s.SwapPolicy("uslatency", "operator upgrade"); err != nil {
		return err
	}
	for i := 0; i < *heavy; i++ {
		name := fmt.Sprintf("postswap-%d", i)
		if _, err := s.Launch(s.Domains()-1, name, parkLoop); err != nil {
			return fmt.Errorf("launch %s: %w", name, err)
		}
	}
	return s.Run(*rounds / 2)
}

// crashAt is when crashPlan's injected panic fires inside the active
// cluster policy.
const crashAt = vessel.Time(2 * vessel.Microsecond)

// crashPlan is the policy-crash chaos plan: one cluster-policy panic.
func crashPlan() *vessel.FaultPlan {
	return &vessel.FaultPlan{
		Seed:   7,
		Faults: []vessel.InjectedFault{{Kind: vessel.FaultClusterPolicyPanic, At: crashAt}},
	}
}

type policyCell struct {
	Policy         string `json:"policy"`
	Grants         int    `json:"grants"`
	Revokes        int    `json:"revokes"`
	Delivered      int    `json:"delivered"`
	ActuationP99Ns int64  `json:"actuation_p99_ns"`
	ActuationMaxNs int64  `json:"actuation_max_ns"`
	ActuationOK    bool   `json:"actuation_ok"`
	DeterminismOK  bool   `json:"determinism_ok"`
	Violations     int    `json:"violations"`
}

type clusterBench struct {
	Bench             string       `json:"bench"`
	Domains           int          `json:"domains"`
	Cores             int          `json:"cores"`
	CoresPerNode      int          `json:"cores_per_node"`
	Waves             int          `json:"waves"`
	UProcs            int          `json:"uprocs"`
	Rounds            int          `json:"rounds"`
	ActuationBudgetNs int64        `json:"actuation_budget_ns"`
	Policies          []policyCell `json:"policies"`
	HotSwapOK         bool         `json:"hot_swap_ok"`
	FailsafeMTTRNs    int64        `json:"failsafe_mttr_ns"`
	MTTRBudgetNs      int64        `json:"mttr_budget_ns"`
	FailsafeOK        bool         `json:"failsafe_ok"`
	Pass              bool         `json:"pass"`
}

func main() {
	flag.Parse()
	heavyDomains := *domains / 2
	uprocs := *waves * (heavyDomains**heavy + (*domains-heavyDomains)**light)
	fmt.Printf("clusterbench: core auction — %d domains (%d heavy) on a %d-core pool, %d waves, %d uProcesses\n\n",
		*domains, heavyDomains, *cores, *waves, uprocs)

	bench := clusterBench{
		Bench:             "cluster-sched",
		Domains:           *domains,
		Cores:             *cores,
		CoresPerNode:      *coresPerNode,
		Waves:             *waves,
		UProcs:            uprocs,
		Rounds:            *rounds,
		ActuationBudgetNs: *actBudget,
		MTTRBudgetNs:      *mttrBudget,
	}
	failed := false

	// Per-policy cells: conformance + actuation + double-run determinism.
	for _, policy := range vessel.ClusterPolicyNames() {
		s1, err := auction(policy, nil, drainAndSteady)
		if err != nil {
			cliflags.Fail("clusterbench", fmt.Errorf("%s: %w", policy, err))
		}
		s2, err := auction(policy, nil, drainAndSteady)
		if err != nil {
			cliflags.Fail("clusterbench", fmt.Errorf("%s rerun: %w", policy, err))
		}
		rep := s1.Report()
		cell := policyCell{
			Policy:         policy,
			Grants:         rep.Grants,
			Revokes:        rep.Revokes,
			Delivered:      rep.Delivered,
			ActuationP99Ns: rep.Actuation.P99,
			ActuationMaxNs: rep.Actuation.Max,
			ActuationOK:    rep.ActuationOK(vessel.Duration(*actBudget)),
			DeterminismOK:  bytes.Equal(rep.Canonical(), s2.Report().Canonical()),
		}
		vs := conformance.CheckClusterSched("clusterbench/"+policy, rep)
		cell.Violations = len(vs)
		status := "ok"
		if !cell.ActuationOK {
			status, failed = "ACTUATION-OVER-BUDGET", true
		}
		if !cell.DeterminismOK {
			status, failed = "NONDETERMINISTIC", true
		}
		if cell.Violations > 0 {
			status, failed = "VIOLATIONS", true
		}
		fmt.Printf("  %-10s grants=%-4d revokes=%-4d delivered=%-4d actuation p99=%dns max=%dns  %s\n",
			policy, cell.Grants, cell.Revokes, cell.Delivered,
			cell.ActuationP99Ns, cell.ActuationMaxNs, status)
		for _, v := range vs {
			fmt.Printf("    %s\n", v)
		}
		bench.Policies = append(bench.Policies, cell)
	}

	// Hot swap: fairshare → uslatency mid-run; exactly one swap, and the
	// swapped-in policy keeps committing moves.
	swapped, err := auction("fairshare", nil, swapMidRun)
	if err != nil {
		cliflags.Fail("clusterbench", fmt.Errorf("hot swap: %w", err))
	}
	swapRep := swapped.Report()
	postSwapOps := 0
	if len(swapRep.Swaps) == 1 {
		for _, op := range swapRep.Ops {
			if op.At >= swapRep.Swaps[0].At {
				postSwapOps++
			}
		}
	}
	bench.HotSwapOK = swapped.PolicyName() == "failsafe(uslatency)" &&
		len(swapRep.Swaps) == 1 && postSwapOps > 0 &&
		len(conformance.CheckClusterSched("clusterbench/hotswap", swapRep)) == 0
	fmt.Printf("\nhot swap: policy=%s swaps=%d post-swap-ops=%d ok=%v\n",
		swapped.PolicyName(), len(swapRep.Swaps), postSwapOps, bench.HotSwapOK)
	if !bench.HotSwapOK {
		failed = true
	}

	// Policy-crash chaos: an injected panic inside the active policy must
	// fail over to the static failsafe within the MTTR budget.
	crashed, err := auction("fairshare", crashPlan(), steady)
	if err != nil {
		cliflags.Fail("clusterbench", fmt.Errorf("policy crash: %w", err))
	}
	crashRep := crashed.Report()
	bench.FailsafeOK = crashed.PolicyName() == "failsafe[static]" &&
		len(crashRep.Swaps) >= 1 &&
		len(conformance.CheckClusterSched("clusterbench/failsafe", crashRep)) == 0
	if bench.FailsafeOK {
		bench.FailsafeMTTRNs = int64(crashRep.Swaps[0].At) - int64(crashAt)
		if bench.FailsafeMTTRNs > *mttrBudget {
			fmt.Printf("\nfailsafe: MTTR %dns exceeds budget %dns\n", bench.FailsafeMTTRNs, *mttrBudget)
			bench.FailsafeOK = false
		}
	}
	fmt.Printf("failsafe: policy=%s swaps=%d mttr=%dns (budget %dns) ok=%v\n",
		crashed.PolicyName(), len(crashRep.Swaps), bench.FailsafeMTTRNs, *mttrBudget, bench.FailsafeOK)
	if !bench.FailsafeOK {
		failed = true
	}

	bench.Pass = !failed
	fmt.Printf("\nclusterbench: pass=%v\n", bench.Pass)

	if *benchOut != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			cliflags.Fail("clusterbench", err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			cliflags.Fail("clusterbench", err)
		}
		fmt.Printf("summary written to %s\n", *benchOut)
	}
	if failed {
		os.Exit(1)
	}
}

package conformance

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	vesselapi "vessel"
)

// The core-auction scenario (DESIGN.md §16): half the domains heavy, half
// light, launched in waves so demand shifts while the policy rebalances.
const (
	auctionDomains      = 4
	auctionCores        = 32
	auctionCoresPerNode = 8 // NUMA node granularity of the executor caches
	auctionWaves        = 3
	auctionHeavy        = 12 // uProcesses per heavy domain per wave
	auctionLight        = 2  // uProcesses per light domain per wave
	auctionRounds       = 30 // scheduling rounds after the last wave

	// actuationBudget bounds every upcall's commit→actuation latency.
	actuationBudget = 50 * vesselapi.Microsecond
	// failsafeMTTRBudget bounds policy panic → failsafe swap.
	failsafeMTTRBudget = 100 * vesselapi.Microsecond
)

func auctionParkLoop(m *vesselapi.Manager) (*vesselapi.Program, error) {
	return m.NewProgram("loop").Forever(func(b *vesselapi.ProgramBuilder) {
		b.Compute(500).Park()
	}).Build()
}

// auction builds and runs one core-auction scenario: heavy domains (the
// lower half) launch auctionHeavy uProcesses per wave, light domains
// auctionLight, with scheduling rounds between waves so grants chase the
// demand.
func auction(policy string, faults *vesselapi.FaultPlan, run func(s *vesselapi.ScheduledCluster) error) (*vesselapi.ScheduledCluster, error) {
	s, err := vesselapi.NewScheduledCluster(vesselapi.SchedClusterConfig{
		Domains:      auctionDomains,
		Cores:        auctionCores,
		CoresPerNode: auctionCoresPerNode,
		Policy:       policy,
		Quantum:      1000,
		Faults:       faults,
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < auctionWaves; w++ {
		for d := 0; d < s.Domains(); d++ {
			n := auctionLight
			if d < s.Domains()/2 {
				n = auctionHeavy
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("w%d-d%d-%d", w, d, i)
				if _, err := s.Launch(d, name, auctionParkLoop); err != nil {
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

func steady(s *vesselapi.ScheduledCluster) error { return s.Run(auctionRounds) }

// drainAndSteady runs half the rounds, destroys every uProcess in domain
// 0 so the now-idle domain yields its cores back to the pool (exercising
// the revoke/rehome path), and runs the rest.
func drainAndSteady(s *vesselapi.ScheduledCluster) error {
	if err := s.Run(auctionRounds / 2); err != nil {
		return err
	}
	for w := 0; w < auctionWaves; w++ {
		for i := 0; i < auctionHeavy; i++ {
			if err := s.Destroy(fmt.Sprintf("w%d-d0-%d", w, i)); err != nil {
				return fmt.Errorf("destroy w%d-d0-%d: %w", w, i, err)
			}
		}
	}
	return s.Run(auctionRounds - auctionRounds/2)
}

// swapMidRun runs half the rounds, hot-swaps fairshare → uslatency, turns
// the last (light) domain heavy so the swapped-in policy must commit fresh
// grants, and runs the rest.
func swapMidRun(s *vesselapi.ScheduledCluster) error {
	if err := s.Run(auctionRounds / 2); err != nil {
		return err
	}
	if err := s.SwapPolicy("uslatency", "operator upgrade"); err != nil {
		return err
	}
	for i := 0; i < auctionHeavy; i++ {
		name := fmt.Sprintf("postswap-%d", i)
		if _, err := s.Launch(s.Domains()-1, name, auctionParkLoop); err != nil {
			return fmt.Errorf("launch %s: %w", name, err)
		}
	}
	return s.Run(auctionRounds / 2)
}

// crashAt is when crashPlan's injected panic fires inside the active
// cluster policy.
const crashAt = vesselapi.Time(2 * vesselapi.Microsecond)

// crashPlan is the policy-crash chaos plan: one cluster-policy panic.
func crashPlan() *vesselapi.FaultPlan {
	return &vesselapi.FaultPlan{
		Seed:   7,
		Faults: []vesselapi.InjectedFault{{Kind: vesselapi.FaultClusterPolicyPanic, At: crashAt}},
	}
}

// TestClusterCanonicalGolden runs every core-auction scenario and holds
// the cluster scheduler's gates on each, all in virtual time:
//
//   - conformance: CheckClusterSched replays the op history against an
//     independent ledger with zero violations;
//   - actuation: every delivered upcall actuated within actuationBudget
//     of its commit;
//   - determinism: a second run produces byte-identical canonical reports;
//   - hot swap: fairshare → uslatency mid-run commits exactly one swap
//     and the swapped-in policy keeps committing moves;
//   - failsafe: an injected policy panic fails over to the static
//     failsafe within failsafeMTTRBudget.
//
// It also pins each scenario byte for byte: the canonical ledger report,
// each domain's parks, preemptions and executed time, and the failure
// detector's tracked set. The double run only proves a build agrees with
// itself; these files prove a refactor of the driver loop left every
// grant, upcall and beat where it was. The per-scenario gate figures
// render into testdata/cluster/summary.golden.
func TestClusterCanonicalGolden(t *testing.T) {
	type scenario struct {
		name   string
		policy string
		faults *vesselapi.FaultPlan
		run    func(*vesselapi.ScheduledCluster) error
	}
	var scenarios []scenario
	for _, p := range vesselapi.ClusterPolicyNames() {
		scenarios = append(scenarios,
			scenario{"auction-" + p, p, nil, steady},
			scenario{"drain-" + p, p, nil, drainAndSteady})
	}
	scenarios = append(scenarios,
		scenario{"hotswap", "fairshare", nil, swapMidRun},
		scenario{"panic", "fairshare", crashPlan(), steady})
	summary := make([]string, len(scenarios))
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s, err := auction(sc.policy, sc.faults, sc.run)
			if err != nil {
				t.Fatal(err)
			}
			again, err := auction(sc.policy, sc.faults, sc.run)
			if err != nil {
				t.Fatal(err)
			}
			rep := s.Report()
			if !bytes.Equal(rep.Canonical(), again.Report().Canonical()) {
				t.Error("two identical runs produced different canonical reports")
			}
			if vs := CheckClusterSched("cluster/"+sc.name, rep); len(vs) != 0 {
				t.Errorf("ledger replay flagged:\n%v", vs)
			}
			if !rep.ActuationOK(actuationBudget) {
				t.Errorf("actuation max %dns over the %v budget", rep.Actuation.Max, actuationBudget)
			}
			line := fmt.Sprintf("%s policy=%s grants=%d revokes=%d delivered=%d actuation_p99_ns=%d actuation_max_ns=%d",
				sc.name, s.Sched().PolicyName(), rep.Grants, rep.Revokes, rep.Delivered, rep.Actuation.P99, rep.Actuation.Max)
			switch sc.name {
			case "hotswap":
				postSwapOps := 0
				if len(rep.Swaps) == 1 {
					for _, op := range rep.Ops {
						if op.At >= rep.Swaps[0].At {
							postSwapOps++
						}
					}
				}
				if s.Sched().PolicyName() != "failsafe(uslatency)" || len(rep.Swaps) != 1 || postSwapOps == 0 {
					t.Errorf("hot swap: policy=%s swaps=%d post-swap ops=%d, want failsafe(uslatency), 1, >0",
						s.Sched().PolicyName(), len(rep.Swaps), postSwapOps)
				}
				line += fmt.Sprintf(" post_swap_ops=%d", postSwapOps)
			case "panic":
				if s.Sched().PolicyName() != "failsafe[static]" || len(rep.Swaps) == 0 {
					t.Fatalf("policy panic: policy=%s swaps=%d, want failsafe[static] and a swap",
						s.Sched().PolicyName(), len(rep.Swaps))
				}
				mttr := rep.Swaps[0].At.Sub(crashAt)
				if mttr > failsafeMTTRBudget {
					t.Errorf("failsafe MTTR %v over the %v budget", mttr, failsafeMTTRBudget)
				}
				line += fmt.Sprintf(" failsafe_mttr_ns=%d", int64(mttr))
			}
			summary[i] = line + "\n"
			checkGolden(t, filepath.Join("testdata", "cluster", sc.name+".golden"), render(s))
			checkGolden(t, filepath.Join("testdata", "cluster", sc.name+".beats.golden"), renderBeats(s))
		})
	}
	for _, line := range summary {
		if line == "" {
			return // a scenario was filtered out or failed before its gates
		}
	}
	header := fmt.Sprintf("domains=%d cores=%d cores_per_node=%d waves=%d uprocs=%d rounds=%d actuation_budget_ns=%d mttr_budget_ns=%d\n",
		auctionDomains, auctionCores, auctionCoresPerNode, auctionWaves,
		auctionWaves*(auctionDomains/2*auctionHeavy+(auctionDomains-auctionDomains/2)*auctionLight),
		auctionRounds, int64(actuationBudget), int64(failsafeMTTRBudget))
	checkGolden(t, filepath.Join("testdata", "cluster", "summary.golden"), []byte(header+strings.Join(summary, "")))
}

// renderBeats pins each tracked core's last heartbeat: the driver beats a
// granted core only in a round where it retired instructions, so an idle
// core's last beat stays behind the clock.
func renderBeats(s *vesselapi.ScheduledCluster) []byte {
	var b bytes.Buffer
	for _, id := range s.Detector().Tracked() {
		at, _ := s.Detector().LastBeat(id)
		fmt.Fprintf(&b, "%s %d\n", id, int64(at))
	}
	return b.Bytes()
}

// render is the byte witness of one scenario.
func render(s *vesselapi.ScheduledCluster) []byte {
	var b bytes.Buffer
	b.Write(s.Report().Canonical())
	for d := 0; d < s.Domains(); d++ {
		m := s.Manager(d)
		var parks, preempts uint64
		var ns float64
		for c := 0; c < m.NumCores(); c++ {
			p, q := m.Stats(c)
			parks += p
			preempts += q
			ns += m.CyclesNs(c)
		}
		fmt.Fprintf(&b, "domain %d: parks=%d preemptions=%d cycles_ns=%v\n", d, parks, preempts, ns)
	}
	fmt.Fprintf(&b, "tracked: %s\n", strings.Join(s.Detector().Tracked(), " "))
	return b.Bytes()
}

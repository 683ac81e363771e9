package conformance

import (
	"fmt"

	"vessel/internal/selfheal"
	"vessel/internal/sim"
)

// SelfHealExpect declares what a chaos run was supposed to exercise, so the
// oracle can flag a plan whose faults silently never fired (a soak that
// injects five fault classes but recovers from zero proves nothing).
type SelfHealExpect struct {
	// MinFences / MinRestarts / MinPolicySwaps / MinPkeysHealed are lower
	// bounds on the recovery paths the plan must have exercised; zero
	// means "no requirement".
	MinFences      int
	MinRestarts    int
	MinPolicySwaps int
	MinPkeysHealed int
	// AllowDeadDomains permits domains that exhausted their restart cap;
	// by default any dead domain is a violation.
	AllowDeadDomains bool
}

// CheckSelfHeal converts a self-healing run's report into conformance
// violations:
//
//   - every invariant breach the cluster recorded (leaked pkeys, orphaned
//     regions, lost or duplicated uProcesses, unreconciled workers) is
//     re-emitted under the "recovery-invariant" oracle;
//   - the worst observed MTTR must fit the declared detect+restart budget
//     ("mttr-budget");
//   - a run that claims recoveries must have MTTR samples backing them,
//     and vice versa ("mttr-accounting");
//   - the expected recovery paths must actually have been exercised
//     ("coverage"), and domains must end alive unless the expectation
//     says otherwise ("liveness").
func CheckSelfHeal(system string, rep *selfheal.Report, want SelfHealExpect) []Violation {
	var out []Violation
	add := func(oracle, format string, args ...any) {
		out = append(out, Violation{System: system, Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	for _, v := range rep.Violations {
		add("recovery-invariant", "%s", v)
	}

	budget := selfheal.DetectBudget + selfheal.RestartBudget
	if rep.MTTR.Count > 0 && sim.Duration(rep.MTTR.Max) > budget {
		add("mttr-budget", "max MTTR %dns exceeds budget %dns", rep.MTTR.Max, int64(budget))
	}

	recoveries := rep.Fences + rep.DomainRestarts
	if recoveries > 0 && rep.MTTR.Count == 0 {
		add("mttr-accounting", "%d recoveries but no MTTR samples", recoveries)
	}
	if rep.MTTR.Count > uint64(recoveries) {
		add("mttr-accounting", "%d MTTR samples exceed %d recoveries", rep.MTTR.Count, recoveries)
	}

	if rep.Fences < want.MinFences {
		add("coverage", "fences %d < required %d", rep.Fences, want.MinFences)
	}
	if rep.DomainRestarts < want.MinRestarts {
		add("coverage", "domain restarts %d < required %d", rep.DomainRestarts, want.MinRestarts)
	}
	if rep.PolicySwaps < want.MinPolicySwaps {
		add("coverage", "policy swaps %d < required %d", rep.PolicySwaps, want.MinPolicySwaps)
	}
	if rep.PkeysHealed < want.MinPkeysHealed {
		add("coverage", "pkeys healed %d < required %d", rep.PkeysHealed, want.MinPkeysHealed)
	}

	if rep.DomainsDead > 0 && !want.AllowDeadDomains {
		add("liveness", "%d domain(s) gave up after exhausting restarts", rep.DomainsDead)
	}

	return out
}

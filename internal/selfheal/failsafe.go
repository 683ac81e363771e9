package selfheal

import (
	"vessel/internal/failsafe"
	"vessel/internal/vessel"
)

// Failsafe wraps a domain's scheduler policy so that no policy bug can
// take the cluster down (package failsafe). It implements vessel.Policy
// (each domain of a Cluster decides through one) and
// faultinject.PolicyTarget (attach it with Injector.AttachPolicy so
// PolicyPanic faults have something to attack).
type Failsafe = failsafe.Wrap[vessel.PolicyView, vessel.PolicyDecision]

// NewFailsafe wraps primary (nil selects round-robin) with a round-robin
// fallback and the given per-decision cycle budget (0 disables the
// budget check).
func NewFailsafe(primary vessel.Policy, budgetCycles int64) *Failsafe {
	if primary == nil {
		primary = vessel.RoundRobinPolicy{}
	}
	return failsafe.New[vessel.PolicyView, vessel.PolicyDecision](primary, vessel.RoundRobinPolicy{}, budgetCycles,
		func(d *vessel.PolicyDecision) *int64 { return &d.CostCycles })
}

package clustersched

import "vessel/internal/failsafe"

// Failsafe is the policy fault-isolation boundary of the ghOSt model
// (package failsafe): a cluster policy that panics or blows its
// per-decision cycle budget is replaced — one-way — by the minimal Static
// fallback, so no policy bug can stop core scheduling. It implements
// faultinject.PolicyTarget, which is how the chaos harness's
// ClusterPolicyPanic faults reach it.
type Failsafe = failsafe.Wrap[View, Txn]

// NewFailsafe wraps primary (nil selects Static) with the Static fallback
// and the given per-decision cycle budget (0 disables the budget check).
func NewFailsafe(primary Policy, budgetCycles int64) *Failsafe {
	if primary == nil {
		primary = Static{}
	}
	return failsafe.New[View, Txn](primary, Static{}, budgetCycles,
		func(t *Txn) *int64 { return &t.CostCycles })
}

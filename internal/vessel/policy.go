package vessel

// Scheduler policies: the pluggable decision point the failsafe wrapper
// (internal/selfheal) guards. A policy sees one core's state per quantum
// and decides whether to preempt; the self-healing cluster routes its
// preemption decisions through one, so a buggy policy — one that panics,
// or that burns unbounded cycles deciding — can be swapped for the
// round-robin failsafe at a single seam without stopping the run.

// PolicyView is the per-core state a policy decides on. It is a value
// snapshot: policies cannot reach back into the domain, which is what makes
// a mid-run policy swap safe.
type PolicyView struct {
	// Core is the core being decided.
	Core int
	// RanFull reports that the current thread consumed its whole quantum
	// (it never parked voluntarily).
	RanFull bool
	// QueueLen is the number of threads waiting on the core's runqueue.
	QueueLen int
	// Idle reports that the core executed nothing this quantum.
	Idle bool
}

// PolicyDecision is a policy's verdict for one core-quantum.
type PolicyDecision struct {
	// Preempt kicks the core with a scheduler Uintr.
	Preempt bool
	// CostCycles is the modeled cost of making this decision, charged to
	// the deciding entity. The failsafe wrapper compares it against the
	// per-decision budget; a policy that "thinks" past the budget is
	// treated as wedged and replaced.
	CostCycles int64
}

// Policy decides preemption per core per quantum.
type Policy interface {
	Name() string
	Decide(PolicyView) PolicyDecision
}

// RoundRobinPolicy preempts any thread that consumed its full quantum —
// the minimal, obviously-correct discipline RunChaos's round part applies
// after every quantum, and the failsafe a broken policy is swapped for.
type RoundRobinPolicy struct{}

// Name implements Policy.
func (RoundRobinPolicy) Name() string { return "roundrobin" }

// Decide implements Policy.
func (RoundRobinPolicy) Decide(v PolicyView) PolicyDecision {
	return PolicyDecision{Preempt: v.RanFull}
}

// FairSharePolicy preempts a full-quantum thread only when siblings wait —
// an uncontested thread keeps the core, saving the switch.
type FairSharePolicy struct{}

// Name implements Policy.
func (FairSharePolicy) Name() string { return "fairshare" }

// Decide implements Policy.
func (FairSharePolicy) Decide(v PolicyView) PolicyDecision {
	return PolicyDecision{Preempt: v.RanFull && v.QueueLen > 0}
}

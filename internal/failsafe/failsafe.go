// Package failsafe is the policy fault-isolation boundary shared by every
// scheduler policy the reproduction runs: the per-core decisions of a
// domain (selfheal) and the grant/revoke transactions of the cluster
// scheduler (clustersched). A policy that panics or blows its
// per-decision cycle budget is killed and replaced — one-way — by a
// minimal fallback, so no policy bug can stop scheduling.
package failsafe

import (
	"fmt"
	"sync"
)

// Policy decides D from a view V.
type Policy[V, D any] interface {
	Name() string
	Decide(V) D
}

// Wrap runs a primary policy under panic recovery and a per-decision
// cycle budget, and on the first violation atomically replaces it with
// the fallback for the rest of the run. The swap is one-way — a policy
// that failed once has forfeited the benefit of the doubt.
//
// Wrap implements Policy[V, D] and faultinject.PolicyTarget (so injected
// policy faults have something to attack). All methods are safe for
// concurrent use.
type Wrap[V, D any] struct {
	mu       sync.Mutex
	primary  Policy[V, D]
	fallback Policy[V, D]
	// cost locates a decision's cycle charge, the quantity the budget
	// bounds.
	cost func(*D) *int64
	// budget is the per-decision cycle ceiling; 0 disables the check.
	budget  int64
	swapped bool
	reason  string
	// armPanic / armBurn are the fault injector's pending attacks on the
	// next decision.
	armPanic bool
	armBurn  int64
	// Panics counts recovered policy panics; Overruns counts decisions
	// that blew the cycle budget. At most one of them ever reaches 1 —
	// the swap happens on the first violation.
	Panics   uint64
	Overruns uint64
	// OnSwap, when non-nil, observes the takeover. It is invoked with the
	// lock held, exactly once; it must not call back into the Wrap.
	OnSwap func(reason string)
}

// New wraps primary with fallback and the given per-decision cycle
// budget (0 disables the budget check); cost returns a pointer to a
// decision's cycle charge.
func New[V, D any](primary, fallback Policy[V, D], budgetCycles int64, cost func(*D) *int64) *Wrap[V, D] {
	return &Wrap[V, D]{primary: primary, fallback: fallback, budget: budgetCycles, cost: cost}
}

// Name implements Policy.
func (f *Wrap[V, D]) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapped {
		return fmt.Sprintf("failsafe[%s]", f.fallback.Name())
	}
	return fmt.Sprintf("failsafe(%s)", f.primary.Name())
}

// Decide implements Policy. A primary that panics or decides past the
// budget is swapped for the fallback, whose decision is returned; the
// cycles a budget-blowing decision burned are still charged (the damage
// was done once), the swap guarantees it never recurs.
func (f *Wrap[V, D]) Decide(v V) D {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapped {
		return f.fallback.Decide(v)
	}
	dec, ok := f.tryPrimary(v)
	if !ok {
		f.Panics++
		f.swapLocked("panic")
		return f.fallback.Decide(v)
	}
	cost := f.cost(&dec)
	if f.armBurn > 0 {
		*cost += f.armBurn
		f.armBurn = 0
	}
	if f.budget > 0 && *cost > f.budget {
		f.Overruns++
		f.swapLocked(fmt.Sprintf("budget cost=%d limit=%d", *cost, f.budget))
		fb := f.fallback.Decide(v)
		*f.cost(&fb) += *cost
		return fb
	}
	return dec
}

// tryPrimary runs the primary's decision under panic recovery.
func (f *Wrap[V, D]) tryPrimary(v V) (dec D, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if f.armPanic {
		f.armPanic = false
		panic("failsafe: injected policy panic")
	}
	return f.primary.Decide(v), true
}

// swapLocked performs the one-way takeover. Callers hold f.mu.
func (f *Wrap[V, D]) swapLocked(reason string) {
	f.swapped = true
	f.reason = reason
	if f.OnSwap != nil {
		f.OnSwap(reason)
	}
}

// Swapped reports whether the fallback has taken over, and why.
func (f *Wrap[V, D]) Swapped() (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.swapped, f.reason
}

// InjectPanic implements faultinject.PolicyTarget: the next decision
// panics inside the primary.
func (f *Wrap[V, D]) InjectPanic() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armPanic = true
}

// InjectBurn implements faultinject.PolicyTarget: the next decision is
// charged the given extra cycles, blowing the budget if one is set.
func (f *Wrap[V, D]) InjectBurn(cycles int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armBurn += cycles
}

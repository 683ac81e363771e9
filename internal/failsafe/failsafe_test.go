package failsafe_test

import (
	"strings"
	"sync"
	"testing"

	"vessel/internal/clustersched"
	"vessel/internal/failsafe"
	"vessel/internal/selfheal"
	"vessel/internal/vessel"
)

// fixed is a test primary: it charges a fixed cycle cost per decision, or
// panics on its panicAt-th decision (counting from 1; 0 never panics).
// The Wrap serialises decisions, so n needs no lock of its own.
type fixed[V, D any] struct {
	cost    func(int64) D
	charge  int64
	panicAt int
	n       int
}

func (p *fixed[V, D]) Name() string { return "fixed" }
func (p *fixed[V, D]) Decide(V) D {
	p.n++
	if p.n == p.panicAt {
		panic("scheduled policy bug")
	}
	return p.cost(p.charge)
}

// instance is one instantiation of failsafe.Wrap under test, built by the
// owning package's constructor so its fallback is the one production uses.
type instance[V, D any] struct {
	wrap     func(primary failsafe.Policy[V, D], budget int64) *failsafe.Wrap[V, D]
	fallback failsafe.Policy[V, D]
	view     V
	// decision builds a decision charging the given cycles; cost reads a
	// decision's charge back.
	decision func(int64) D
	cost     func(D) int64
}

// TestWrap runs the failsafe contract against both production
// instantiations: a domain's per-core policy (round-robin fallback) and
// the cluster policy (static fallback).
func TestWrap(t *testing.T) {
	t.Run("selfheal", func(t *testing.T) {
		run(t, instance[vessel.PolicyView, vessel.PolicyDecision]{
			wrap: func(p failsafe.Policy[vessel.PolicyView, vessel.PolicyDecision], budget int64) *selfheal.Failsafe {
				return selfheal.NewFailsafe(p, budget)
			},
			fallback: vessel.RoundRobinPolicy{},
			view:     vessel.PolicyView{RanFull: true},
			decision: func(c int64) vessel.PolicyDecision { return vessel.PolicyDecision{CostCycles: c} },
			cost:     func(d vessel.PolicyDecision) int64 { return d.CostCycles },
		})
	})
	t.Run("clustersched", func(t *testing.T) {
		run(t, instance[clustersched.View, clustersched.Txn]{
			wrap: func(p failsafe.Policy[clustersched.View, clustersched.Txn], budget int64) *clustersched.Failsafe {
				return clustersched.NewFailsafe(p, budget)
			},
			fallback: clustersched.Static{},
			view: clustersched.View{Cores: 2, MinPerDomain: 1, FreeCores: []int{0, 1},
				Owned: [][]int{nil}, Domains: []clustersched.DomainView{{ID: 0, Share: 1, Want: 1}}},
			decision: func(c int64) clustersched.Txn { return clustersched.Txn{CostCycles: c} },
			cost:     func(t clustersched.Txn) int64 { return t.CostCycles },
		})
	})
}

func run[V, D any](t *testing.T, in instance[V, D]) {
	fallbackCost := in.cost(in.fallback.Decide(in.view))
	newWrap := func(charge int64, panicAt int, budget int64) (*failsafe.Wrap[V, D], *int) {
		f := in.wrap(&fixed[V, D]{cost: in.decision, charge: charge, panicAt: panicAt}, budget)
		swaps := new(int)
		f.OnSwap = func(string) { *swaps++ }
		return f, swaps
	}

	t.Run("panic_swap", func(t *testing.T) {
		f, swaps := newWrap(0, 3, 0)
		if got := f.Name(); got != "failsafe(fixed)" {
			t.Fatalf("pre-swap name %q", got)
		}
		for i := 0; i < 10; i++ {
			f.Decide(in.view)
		}
		if sw, reason := f.Swapped(); !sw || reason != "panic" {
			t.Fatalf("swapped = (%v, %q), want (true, panic)", sw, reason)
		}
		if f.Panics != 1 || f.Overruns != 0 || *swaps != 1 {
			t.Fatalf("panics=%d overruns=%d swaps=%d, want 1/0/1 (swap is one-way)", f.Panics, f.Overruns, *swaps)
		}
		if got, want := f.Name(), "failsafe["+in.fallback.Name()+"]"; got != want {
			t.Fatalf("post-swap name %q, want %q", got, want)
		}
	})

	t.Run("injected_panic", func(t *testing.T) {
		f, swaps := newWrap(0, 0, 0)
		f.InjectPanic()
		if got := in.cost(f.Decide(in.view)); got != fallbackCost {
			t.Fatalf("panicked decision cost %d, want the fallback's %d", got, fallbackCost)
		}
		if sw, reason := f.Swapped(); !sw || reason != "panic" || f.Panics != 1 || *swaps != 1 {
			t.Fatalf("swapped=(%v,%q) panics=%d swaps=%d", sw, reason, f.Panics, *swaps)
		}
	})

	t.Run("budget_swap", func(t *testing.T) {
		f, swaps := newWrap(50, 0, 100)
		if got := in.cost(f.Decide(in.view)); got != 50 {
			t.Fatalf("within-budget decision cost %d, want 50", got)
		}
		if sw, _ := f.Swapped(); sw {
			t.Fatal("within-budget decision triggered a swap")
		}
		// An injected burn blows the budget: the burn and the primary's
		// own cost are charged exactly once, on top of the fallback's
		// decision, and the fallback takes over.
		f.InjectBurn(500)
		if got, want := in.cost(f.Decide(in.view)), fallbackCost+550; got != want {
			t.Fatalf("budget-blowing decision cost %d, want %d", got, want)
		}
		sw, reason := f.Swapped()
		if !sw || !strings.HasPrefix(reason, "budget cost=550 limit=100") {
			t.Fatalf("swapped = (%v, %q), want budget swap", sw, reason)
		}
		// After the swap the fallback pays only its own cost.
		for i := 0; i < 3; i++ {
			if got := in.cost(f.Decide(in.view)); got != fallbackCost {
				t.Fatalf("post-swap decision cost %d, want the fallback's %d", got, fallbackCost)
			}
		}
		if f.Overruns != 1 || f.Panics != 0 || *swaps != 1 {
			t.Fatalf("overruns=%d panics=%d swaps=%d, want 1/0/1", f.Overruns, f.Panics, *swaps)
		}
	})

	t.Run("zero_budget", func(t *testing.T) {
		f, swaps := newWrap(50, 0, 0)
		f.InjectBurn(1 << 40)
		if got := in.cost(f.Decide(in.view)); got != 50+1<<40 {
			t.Fatalf("burn not charged: cost %d", got)
		}
		if sw, _ := f.Swapped(); sw || *swaps != 0 {
			t.Fatal("a zero budget swapped on a burn")
		}
	})

	// concurrent races decisions, injections, swap reads and names under
	// -race: every method takes the lock.
	t.Run("concurrent", func(t *testing.T) {
		f, _ := newWrap(10, 64, 1000)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.InjectBurn(1)
				if i == 100 {
					f.InjectPanic()
				}
				f.Swapped()
				_ = f.Name()
			}
		}()
		for i := 0; i < 200; i++ {
			f.Decide(in.view)
		}
		wg.Wait()
		if sw, _ := f.Swapped(); !sw {
			t.Fatal("no swap after the primary's scheduled panic")
		}
	})
}

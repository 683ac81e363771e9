package conformance

import (
	"fmt"

	"vessel/internal/obs"
	"vessel/internal/sched"
	"vessel/internal/sim"
)

// CheckProfile verifies the observability conservation law for a run that
// executed with an attached observer: every simulated cycle the scheduler
// accrued must be charged to exactly one (core, occupant, category) bucket,
// so the profiler's per-activity-category totals equal the result's cycle
// breakdown *exactly* — not within tolerance. Both sides flow through
// sched.Base.SetAct with the same window clipping, so any difference
// means an accrual bypassed SetAct (or was charged twice).
//
// The observer must be fresh for the run: sharing one observer across runs
// accumulates charges and trips this oracle by design.
func CheckProfile(system string, o *obs.Observer, res sched.Result) []Violation {
	var out []Violation
	add := func(oracle, format string, args ...any) {
		out = append(out, Violation{System: system, Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}
	if !o.Enabled() {
		add("obs-conservation", "observer is nil; nothing to check")
		return out
	}
	totals := o.Profile().CategoryTotals()
	want := [...]struct {
		cat obs.Category
		ns  sim.Duration
	}{
		{obs.CatIdle, res.Cycles.IdleNs},
		{obs.CatApp, res.Cycles.AppNs},
		{obs.CatRuntime, res.Cycles.RuntimeNs},
		{obs.CatKernel, res.Cycles.KernelNs},
		{obs.CatSwitch, res.Cycles.SwitchNs},
	}
	for _, w := range want {
		if totals[w.cat] != w.ns {
			add("obs-conservation", "category %s: profiler charged %d ns, breakdown says %d ns (Δ %d)",
				w.cat, int64(totals[w.cat]), int64(w.ns), int64(totals[w.cat]-w.ns))
		}
	}
	if got, total := o.Profile().ActivityTotal(), res.Cycles.Total(); got != total {
		add("obs-conservation", "activity total %d ns != breakdown total %d ns", int64(got), int64(total))
	}
	return out
}

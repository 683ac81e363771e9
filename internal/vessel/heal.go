package vessel

// Manager-level recovery surface used by the cluster self-healer
// (internal/selfheal): shared-engine construction so a restarted domain
// lives on the same virtual timeline as its predecessor, core fencing with
// supervised-workload re-homing, and teardown-time cancellation of the
// domain's pending events — the restart side of the stale-event hazard.

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/sim"
	"vessel/internal/uproc"
)

// NewManagerOn boots a scheduling domain on a fresh simulated machine that
// shares an existing event engine. A supervised domain restart constructs
// the replacement this way: fresh SMAS, fresh machine, same timeline — so
// the recovery's virtual-time accounting (MTTR) is continuous across the
// restart.
func NewManagerOn(eng *sim.Engine, cores int, costs *cpu.CostModel) (*Manager, error) {
	if costs == nil {
		costs = cpu.Default()
	}
	m := cpu.NewMachine(cores, costs)
	d, err := uproc.NewDomain(eng, m)
	if err != nil {
		return nil, err
	}
	return &Manager{Domain: d, eng: eng, m: m, named: make(map[string]*uproc.UProc)}, nil
}

// NewManagerVirtual boots a scheduling domain on a fresh engine with
// libmpk-style virtualized protection keys enabled on the fresh SMAS before
// any region exists, so the domain's uProcess density is no longer capped
// by the 13 hardware app keys (the virtual-mode counterpart of NewManager).
func NewManagerVirtual(cores int, costs *cpu.CostModel) (*Manager, error) {
	mg, err := NewManagerOn(sim.NewEngine(), cores, costs)
	if err != nil {
		return nil, err
	}
	if err := mg.Domain.S.EnableVirtualKeys(); err != nil {
		return nil, err
	}
	return mg, nil
}

// CancelPending cancels every event this manager still has scheduled on
// the shared engine — supervised relaunch backoffs and in-flight Uintr
// deliveries — and reports how many were cancelled. A domain being torn
// down for a restart must call this first: its events capture the dying
// manager, and firing after the restart would resurrect uProcesses in (or
// deliver interrupts to) a domain that no longer exists.
func (mg *Manager) CancelPending() int {
	n := 0
	for _, s := range mg.supervised {
		if s.pending && s.relaunch.Pending() {
			mg.eng.Cancel(s.relaunch)
			s.pending = false
			n++
		}
	}
	n += mg.Domain.Sched.CancelInflight()
	if n > 0 {
		mg.event("cancel.pending", fmt.Sprintf("events=%d", n))
	}
	return n
}

// CoreFenced reports whether a core has been withdrawn from placement.
func (mg *Manager) CoreFenced(core int) bool { return mg.Domain.Fenced(core) }

// FencedCores returns how many cores are currently fenced.
func (mg *Manager) FencedCores() int {
	n := 0
	for i := 0; i < mg.m.NumCores(); i++ {
		if mg.Domain.Fenced(i) {
			n++
		}
	}
	return n
}

// FenceCore withdraws a core from placement: queued threads are re-homed
// round-robin across the remaining healthy cores, a thread wedged on the
// core is written off with its uProcess, and supervised workloads pinned
// there are re-pinned so their next restart lands on a survivor. With no
// healthy core left the fence still takes effect (the domain is dead and
// the caller's next move is a domain restart); the runqueue then stays put
// for the restart's reconciliation to account for.
func (mg *Manager) FenceCore(core int) error {
	if core < 0 || core >= mg.m.NumCores() {
		return fmt.Errorf("vessel: fence core %d out of range", core)
	}
	if mg.Domain.Fenced(core) {
		return nil
	}
	var targets []int
	for i := 0; i < mg.m.NumCores(); i++ {
		c := mg.m.Core(i)
		if i != core && !mg.Domain.Fenced(i) && c.Fault == nil && !c.Stalled {
			targets = append(targets, i)
		}
	}
	moved, killed, err := mg.Domain.FenceCore(core, targets)
	if err != nil {
		return err
	}
	if len(targets) > 0 {
		i := 0
		for _, s := range mg.supervised {
			if s.core == core {
				s.core = targets[i%len(targets)]
				i++
				mg.event("fence.rehome", fmt.Sprintf("uproc=%s core=%d", s.name, s.core))
			}
		}
	}
	mg.event("fence", fmt.Sprintf("core=%d moved=%d killed=%d targets=%d", core, moved, killed, len(targets)))
	return nil
}

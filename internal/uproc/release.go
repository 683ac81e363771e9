package uproc

// Core release: the domain-side mechanism half of two-level scheduling.
// When the cluster revokes a core from a domain (a CoreRevoked upcall),
// the domain *releases* it: the core is withdrawn from placement, its
// queued threads re-homed onto cores the domain still owns, and — unlike
// fencing — the thread currently running is left to reach its next gate
// boundary, where switchNext drains it too and halts the core. Contexts
// are only capturable at gate boundaries (saveCurrent reads the task-map
// RSP), so revocation must be lazy where fencing could afford to kill:
// the fenced core was already dead, the released core is merely leaving.
//
// Release is reversible. AdmitCore puts a core back under the domain's
// management when the cluster grants it (a CoreGranted upcall); fencing
// stays one-way.

import (
	"fmt"

	"vessel/internal/cpu"
)

// Offline reports whether a core has been released back to the cluster.
func (d *Domain) Offline(core int) bool {
	return core >= 0 && core < len(d.offline) && d.offline[core]
}

// rehome migrates a core's queued threads round-robin onto the target
// cores, reaping dead ones; with no targets the queue is left in place.
// It returns the number of threads moved. Shared by FenceCore and the
// release path.
func (d *Domain) rehome(cs *coreState, targets []int) int {
	if len(targets) == 0 {
		return 0
	}
	moved := 0
	for cs.runq.Len() > 0 {
		t := cs.runq.Pop()
		if t.U.State == UProcTerminated || t.State == ThreadDead {
			t.State = ThreadDead
			continue
		}
		dst := targets[moved%len(targets)]
		d.cores[dst].runq.Push(t)
		moved++
	}
	return moved
}

// validTargets checks that every target core is in range, distinct from
// core, and still placeable (neither fenced nor offline).
func (d *Domain) validTargets(core int, targets []int) error {
	for _, t := range targets {
		if t < 0 || t >= len(d.cores) {
			return fmt.Errorf("uproc: release target %d out of range", t)
		}
		if t == core {
			return fmt.Errorf("uproc: release target %d is the released core", t)
		}
		if d.fenced[t] || d.offline[t] {
			return fmt.Errorf("uproc: release target %d is not placeable", t)
		}
	}
	return nil
}

// ReleaseCore withdraws a core from the domain's placement and re-homes
// its queued threads round-robin onto targets, returning the number of
// threads moved. A thread currently running on the core keeps running
// until its next gate entry (park, schedule, exit), where switchNext
// requeues it, drains it onto the same targets, and halts the core — the
// caller kicks the core with Preempt and steps it until Offline work has
// drained (Current returns nil). An idle core is fully released
// immediately. Targets must be cores the domain still owns; with no
// targets the runqueue is left in place (legal only when it is empty or
// the domain is headed for destruction).
func (d *Domain) ReleaseCore(core int, targets []int) (moved int, err error) {
	if core < 0 || core >= len(d.cores) {
		return 0, fmt.Errorf("uproc: release core %d out of range", core)
	}
	if d.fenced[core] {
		return 0, fmt.Errorf("uproc: core %d is fenced; fencing is one-way", core)
	}
	if d.offline[core] {
		return 0, nil
	}
	if err := d.validTargets(core, targets); err != nil {
		return 0, err
	}
	d.offline[core] = true
	cs := d.cores[core]
	cs.releaseTo = append([]int(nil), targets...)
	d.drainCommands(cs)
	moved = d.rehome(cs, targets)
	if cs.current == nil {
		// Idle core: nothing will reach a gate boundary, finish now.
		c := d.Machine.Core(core)
		c.Halted = true
		d.S.UnpinCore(core)
	}
	d.event("release.core", fmt.Sprintf("core=%d moved=%d lazy=%t", core, moved, cs.current != nil))
	return moved, nil
}

// finishRelease is the lazy half of ReleaseCore, reached from switchNext
// when an offline core enters a gate: any work that accumulated since the
// release (the requeued current thread, late Activate commands) is
// re-homed and the core halts. Threads strand on the released core only
// when the release recorded no targets.
func (d *Domain) finishRelease(c *cpu.Core, cs *coreState) {
	moved := d.rehome(cs, cs.releaseTo)
	cs.current = nil
	c.Halted = true
	// The released core grants no application key anymore: drop its
	// virtual-key pin, same as the idle-halt path.
	d.S.UnpinCore(c.ID)
	if moved > 0 {
		d.event("release.drain", fmt.Sprintf("core=%d moved=%d", c.ID, moved))
	}
}

// AdmitCore puts a released core back under the domain's management — the
// actuation of a CoreGranted upcall. The core comes back idle (halted,
// empty runqueue); Wake dispatches the first thread once one is queued.
// A fenced core cannot be admitted: fencing is one-way by design.
func (d *Domain) AdmitCore(core int) error {
	if core < 0 || core >= len(d.cores) {
		return fmt.Errorf("uproc: admit core %d out of range", core)
	}
	if d.fenced[core] {
		return fmt.Errorf("uproc: core %d is fenced; cannot admit", core)
	}
	if !d.offline[core] {
		return nil
	}
	d.offline[core] = false
	d.cores[core].releaseTo = nil
	d.event("admit.core", fmt.Sprintf("core=%d", core))
	return nil
}

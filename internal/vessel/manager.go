package vessel

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/uproc"
)

// Manager is VESSEL's control plane over one scheduling domain (§5.1):
// the standalone auxiliary program that creates SMAS, processes uProcess
// creation and destruction commands, and owns the domain's resources. It
// is a thin layer over uproc.Domain — the mechanism model — exported from
// the root package as vessel.Manager; the examples, the Table 1
// microbenchmark and every multi-domain driver use it directly.
type Manager struct {
	Domain *uproc.Domain
	eng    *sim.Engine
	m      *cpu.Machine
	named  map[string]*uproc.UProc
	// zombies are destroyed uProcesses awaiting region reclamation
	// (termination is lazy, §5.1 — cores apply the kill at their next
	// privileged entry).
	zombies []*uproc.UProc

	// Chaos-harness state (chaos.go): supervised uProcesses with restart
	// policies and the attached fault injector. The containment event log
	// is the domain's (Domain.Events).
	supervised []*supervised
	injector   *faultinject.Injector

	// Cluster-scheduled mode (executor.go): the per-NUMA executor cache
	// and the executors currently bound to granted cores. Nil until
	// SetClusterManaged.
	exec      *execCache
	executors map[int]*Executor
}

// NewManager boots a scheduling domain on a fresh simulated machine with
// the given number of cores.
func NewManager(cores int, costs *cpu.CostModel) (*Manager, error) {
	return NewManagerOn(sim.NewEngine(), cores, costs)
}

// AttachObs installs the observability layer across the manager's domain
// (WRPKRU, gates, UINTR, pkeys, kills) and enables the manager's own
// restart spans. Attaching again replaces the observer; nil is a no-op.
func (mg *Manager) AttachObs(o *obs.Observer) { mg.Domain.AttachObs(o) }

// AttachJourney installs request-journey tracing across the manager's
// domain seams (gates, UINTR dispositions and deferred windows, kill
// dumps). Attaching again replaces the tracer; nil is a no-op.
func (mg *Manager) AttachJourney(t *journey.Tracer) { mg.Domain.AttachJourney(t) }

// Launch creates a uProcess from a program (fork of the hosting kProcess,
// SMAS attach, load with code inspection) and pins its main thread to the
// given core's FIFO queue.
func (mg *Manager) Launch(name string, p *smas.Program, core int) (*uproc.UProc, error) {
	if _, dup := mg.named[name]; dup {
		return nil, fmt.Errorf("vessel: uProcess %q already exists", name)
	}
	if core < 0 || core >= mg.m.NumCores() {
		return nil, fmt.Errorf("vessel: core %d out of range", core)
	}
	if mg.Domain.Fenced(core) {
		return nil, fmt.Errorf("vessel: core %d is fenced", core)
	}
	if mg.Domain.Offline(core) {
		return nil, fmt.Errorf("vessel: core %d is not granted to this domain", core)
	}
	u, err := mg.Domain.CreateUProc(name, p)
	if err != nil {
		return nil, err
	}
	mg.Domain.AttachThread(core, u.Threads()[0])
	mg.named[name] = u
	return u, nil
}

// Lookup finds a launched uProcess by name.
func (mg *Manager) Lookup(name string) (*uproc.UProc, bool) {
	u, ok := mg.named[name]
	return u, ok
}

// Destroy sends the kill command for a uProcess; cores apply it lazily at
// their next privileged entry (§5.1).
func (mg *Manager) Destroy(name string) error {
	u, ok := mg.named[name]
	if !ok {
		return fmt.Errorf("vessel: no uProcess %q", name)
	}
	delete(mg.named, name)
	mg.zombies = append(mg.zombies, u)
	return mg.Domain.DestroyUProc(u)
}

// Reap reclaims the regions and protection keys of destroyed uProcesses
// whose termination has landed. It returns how many were reclaimed;
// uProcesses whose cores have not yet processed the kill stay pending.
func (mg *Manager) Reap() (int, error) {
	reclaimed := 0
	kept := make([]*uproc.UProc, 0, len(mg.zombies))
	for i, u := range mg.zombies {
		// Stay pending while the kill has not landed or a core still
		// runs a thread of u — reclaiming then would recycle the pkey
		// under a live PKRU (the libmpk stale-key pitfall).
		if u.State != uproc.UProcTerminated || mg.Domain.RunningOn(u) >= 0 {
			kept = append(kept, u)
			continue
		}
		if err := mg.Domain.ReclaimRegion(u); err != nil {
			// Zombies already reclaimed this pass must leave the list —
			// keeping them would reclaim (and double-free the pkey of)
			// the same region on the next call. The failed one and the
			// not-yet-examined tail stay pending.
			mg.zombies = append(kept, mg.zombies[i:]...)
			return reclaimed, err
		}
		reclaimed++
	}
	mg.zombies = kept
	return reclaimed, nil
}

// ZombiesSettled reports whether every destroyed uProcess's lazy
// termination has landed: the kill applied and no core still running one
// of its threads — the point at which Reap can reclaim them all.
func (mg *Manager) ZombiesSettled() bool {
	for _, u := range mg.zombies {
		if u.State != uproc.UProcTerminated || mg.Domain.RunningOn(u) >= 0 {
			return false
		}
	}
	return true
}

// DrainZombies drives the domain until every destroyed uProcess's
// termination has landed, stepping placeable cores in small quanta and
// waking idle ones so queued kill commands are applied. It stops at
// event quiescence — zombies settled, or no core ran an instruction and
// the engine has nothing pending — rather than after a fixed step count.
// It reports whether the zombies settled.
func (mg *Manager) DrainZombies(quantum int) (bool, error) {
	if quantum <= 0 {
		quantum = 500
	}
	// The round bound is a backstop against a runaway live uProcess
	// keeping cores busy forever; quiescence normally stops the loop
	// long before.
	const maxRounds = 1 << 10
	for round := 0; round < maxRounds && !mg.ZombiesSettled(); round++ {
		progressed, err := mg.Round(0, (*drain)(mg), quantum)
		if err != nil {
			return false, err
		}
		if !progressed {
			if mg.eng.Pending() == 0 {
				break
			}
			mg.eng.Step()
		}
	}
	return mg.ZombiesSettled(), nil
}

// drain is the Manager as DrainZombies' round part: it steps every
// placeable core, and runs a woken core's quantum even when the wake found
// nothing — a halted core still drains its command queue, where the kill
// lands, on wake.
type drain Manager

func (p *drain) Admit(_, core int) bool                { return !p.Domain.Fenced(core) && !p.Domain.Offline(core) }
func (*drain) Idle(int, int) bool                      { return true }
func (*drain) AfterRun(int, int, *cpu.Core, int) error { return nil }

// RoundPart is the policy a driver plugs into Round.
type RoundPart interface {
	// Admit reports whether core of domain d steps this round.
	Admit(d, core int) bool
	// Idle is called for a halted core whose wake found nothing to run;
	// it reports whether the core still runs its quantum.
	Idle(d, core int) bool
	// AfterRun is called once the core ran its quantum, retiring ran
	// instructions.
	AfterRun(d, core int, cc *cpu.Core, ran int) error
}

// Round is the one core-stepping loop (RunChaos, DrainZombies, and
// multidomain.Core for each live domain d, which p's hooks receive): it
// steps every admitted core one quantum in core order, waking a halted
// core first and skipping a faulted or stalled one, and reports whether
// any core retired an instruction. Advancing the clock is the driver's.
func (mg *Manager) Round(d int, p RoundPart, quantum int) (progressed bool, err error) {
	for core := 0; core < mg.m.NumCores(); core++ {
		if !p.Admit(d, core) {
			continue
		}
		cc := mg.m.Core(core)
		if cc.Fault != nil || cc.Stalled {
			continue // silent: a detector sees the missing beat
		}
		if cc.Halted {
			ok, err := mg.Domain.Wake(core)
			if err != nil {
				return progressed, err
			}
			if !ok && !p.Idle(d, core) {
				continue
			}
		}
		ran := cc.Run(quantum)
		progressed = progressed || ran > 0
		if err := p.AfterRun(d, core, cc, ran); err != nil {
			return progressed, err
		}
	}
	return progressed, nil
}

// CoreTime is the farthest core's executed time: the virtual time a
// driver advances the engine to after a round.
func (mg *Manager) CoreTime() sim.Time {
	var maxNs float64
	for i := 0; i < mg.m.NumCores(); i++ {
		maxNs = max(maxNs, mg.CyclesNs(i))
	}
	return sim.Time(maxNs)
}

// Start begins execution on a core (first thread dispatch).
func (mg *Manager) Start(core int) error { return mg.Domain.StartCore(core) }

// Step runs up to n instructions on a core, returning how many executed.
// Execution goes through the core's superblock engine; Core.Run's
// step-count contract guarantees the returned count (and the core's
// cycle accounting) is exactly what n per-instruction Steps would give,
// so callers may sum counts across quanta without drift.
func (mg *Manager) Step(core, n int) int { return mg.m.Core(core).Run(n) }

// RunTimesliced drives a core for totalSteps instructions, injecting a
// scheduler preemption (the Uintr path) every quantumSteps — time-slicing
// for applications that never park voluntarily. It returns the number of
// preemptions injected. A core that stops because of an uncontained fault
// (a crash in the trusted runtime, or outside any uProcess) surfaces that
// fault as an error; a core that merely went idle (quiescence) returns
// nil — callers can tell a crashed core from a finished one. Quantum
// boundaries are exact under superblock fusion: Run splits a fused block
// at the budget, so preemptions land after precisely quantumSteps
// retired instructions, never mid-block.
func (mg *Manager) RunTimesliced(core, totalSteps, quantumSteps int) (int, error) {
	if quantumSteps <= 0 {
		return 0, fmt.Errorf("vessel: quantum must be positive")
	}
	injected := 0
	for done := 0; done < totalSteps; {
		n := quantumSteps
		if rem := totalSteps - done; n > rem {
			n = rem
		}
		ran := mg.m.Core(core).Run(n)
		done += ran
		if ran < n {
			if f := mg.m.Core(core).Fault; f != nil {
				return injected, fmt.Errorf("vessel: core %d crashed: %w", core, f)
			}
			break // core idled (UMWAIT): quiescence, not a crash
		}
		if err := mg.Domain.Preempt(core, uproc.SchedCommand{}); err != nil {
			return injected, err
		}
		injected++
	}
	return injected, nil
}

// Machine exposes the underlying simulated machine.
func (mg *Manager) Machine() *cpu.Machine { return mg.m }

// Engine exposes the simulation engine (for Uintr delivery timing).
func (mg *Manager) Engine() *sim.Engine { return mg.eng }

package vessel

// Executor cache and the manager-side actuation of cluster core grants
// and revokes — the lower level of two-level scheduling. When the
// cluster grants a core, the domain binds an *executor* to it: the run
// context (upcall stack, per-core scheduler state) a granted core needs
// before it can dispatch threads. Executors are lazily allocated and
// recycled through a per-NUMA-node cache keyed off a simple
// core→node map, so a domain that churns through grants on the same
// node reuses warm contexts instead of allocating fresh ones — the
// NRK executor-cache idea.

import (
	"fmt"

	"vessel/internal/uproc"
)

// Executor is the run context a domain binds to a granted core: upcall
// stack metadata plus recycling bookkeeping.
type Executor struct {
	// ID is the executor's allocation order within its domain.
	ID int
	// Node is the NUMA node whose cache owns this executor; an executor
	// never migrates across nodes (its stacks are node-local memory).
	Node int
	// BoundCore is the core the executor currently backs, or -1 while it
	// sits in the cache.
	BoundCore int
	// Binds counts how many grants this executor has served — Binds > 1
	// means the cache recycled it.
	Binds int
	// UpcallStackTop is the executor's dedicated upcall stack cursor
	// (metadata only; the simulated runtime stacks live in the SMAS).
	UpcallStackTop uint64
}

// execCache is the per-NUMA-node executor free list.
type execCache struct {
	coresPerNode int
	free         [][]*Executor
	nextID       int
	allocs       int
	recycles     int
}

func (ec *execCache) node(core int) int {
	if ec.coresPerNode <= 0 {
		return 0
	}
	n := core / ec.coresPerNode
	if n >= len(ec.free) {
		n = len(ec.free) - 1
	}
	return n
}

// get pops a cached executor for the core's node, or allocates one.
func (ec *execCache) get(core int) *Executor {
	n := ec.node(core)
	if l := len(ec.free[n]); l > 0 {
		e := ec.free[n][l-1]
		ec.free[n] = ec.free[n][:l-1]
		e.BoundCore = core
		e.Binds++
		ec.recycles++
		return e
	}
	e := &Executor{ID: ec.nextID, Node: n, BoundCore: core, Binds: 1,
		UpcallStackTop: uint64(0x7f00_0000_0000 + ec.nextID*0x10000)}
	ec.nextID++
	ec.allocs++
	return e
}

// put returns an executor to its node's free list.
func (ec *execCache) put(e *Executor) {
	e.BoundCore = -1
	ec.free[e.Node] = append(ec.free[e.Node], e)
}

// SetClusterManaged switches the manager into cluster-scheduled mode:
// every core is released to the cluster (offline, empty, halted) and the
// per-NUMA executor cache is initialized with the given core→node
// granularity. Cores come back one grant at a time via GrantCore. Must
// be called before any uProcess is launched.
func (mg *Manager) SetClusterManaged(coresPerNode int) error {
	if len(mg.named) > 0 || len(mg.zombies) > 0 {
		return fmt.Errorf("vessel: cannot enter cluster-managed mode with live uProcesses")
	}
	if coresPerNode <= 0 {
		coresPerNode = mg.m.NumCores()
	}
	nodes := (mg.m.NumCores() + coresPerNode - 1) / coresPerNode
	mg.exec = &execCache{coresPerNode: coresPerNode, free: make([][]*Executor, nodes)}
	mg.executors = make(map[int]*Executor)
	for core := 0; core < mg.m.NumCores(); core++ {
		// Install the architectural hooks once (StartCore on an offline
		// core halts without dispatching), then release the core.
		if _, err := mg.Domain.ReleaseCore(core, nil); err != nil {
			return err
		}
		if err := mg.Domain.StartCore(core); err != nil {
			return err
		}
	}
	return nil
}

// CoreOnline reports whether the domain may place work on the core: it is
// granted (not offline) and not fenced.
func (mg *Manager) CoreOnline(core int) bool {
	return core >= 0 && core < mg.m.NumCores() &&
		!mg.Domain.Fenced(core) && !mg.Domain.Offline(core)
}

// OnlineCores lists the cores the domain currently owns, ascending.
func (mg *Manager) OnlineCores() []int {
	var out []int
	for i := 0; i < mg.m.NumCores(); i++ {
		if mg.CoreOnline(i) {
			out = append(out, i)
		}
	}
	return out
}

// GrantCore actuates a CoreGranted upcall: the core is admitted back
// under the domain's management and an executor is bound to it from the
// per-node cache. The core comes back idle; Wake dispatches once work is
// queued.
func (mg *Manager) GrantCore(core int) error {
	if mg.exec == nil {
		return fmt.Errorf("vessel: manager is not cluster-managed")
	}
	if mg.CoreOnline(core) {
		return fmt.Errorf("vessel: core %d already granted", core)
	}
	if err := mg.Domain.AdmitCore(core); err != nil {
		return err
	}
	e := mg.exec.get(core)
	mg.executors[core] = e
	mg.event("grant.core", fmt.Sprintf("core=%d exec=%d binds=%d", core, e.ID, e.Binds))
	return nil
}

// revokeDrainSteps bounds how long RevokeCore steps a busy core waiting
// for its running thread to reach a gate boundary.
const revokeDrainSteps = 200_000

// RevokeCore actuates a CoreRevoked upcall: queued threads are re-homed
// round-robin onto the cores the domain still owns, a running thread is
// kicked (Uintr preemption) and the core stepped until the release
// drains at its gate boundary, supervised workloads pinned to the core
// are re-pinned, and the executor returns to its node's cache. It
// returns the number of threads moved to surviving cores.
func (mg *Manager) RevokeCore(core int) (int, error) {
	if mg.exec == nil {
		return 0, fmt.Errorf("vessel: manager is not cluster-managed")
	}
	if !mg.CoreOnline(core) {
		return 0, fmt.Errorf("vessel: core %d is not granted", core)
	}
	var targets []int
	for _, i := range mg.OnlineCores() {
		if i != core && mg.m.Core(i).Fault == nil {
			targets = append(targets, i)
		}
	}
	busy := mg.Domain.Current(core) != nil
	moved, err := mg.Domain.ReleaseCore(core, targets)
	if err != nil {
		return 0, err
	}
	if busy {
		// Force the running thread to a gate boundary now rather than at
		// its next voluntary park: queue an (empty) scheduler command and
		// kick the core, then step it until the release drains.
		if err := mg.Domain.Preempt(core, uproc.SchedCommand{}); err != nil {
			return moved, err
		}
		c := mg.m.Core(core)
		for i := 0; i < revokeDrainSteps && !c.Halted && c.Fault == nil; i += 64 {
			if c.Run(64) == 0 {
				break
			}
		}
		if !c.Halted && c.Fault == nil {
			return moved, fmt.Errorf("vessel: core %d did not drain within %d steps", core, revokeDrainSteps)
		}
		if mg.Domain.Current(core) == nil && len(targets) > 0 {
			moved++ // the formerly-running thread re-homed at the gate
		}
	}
	// Re-pin supervised workloads exactly as fencing does, so their next
	// restart lands on a core the domain still owns.
	if len(targets) > 0 {
		i := 0
		for _, s := range mg.supervised {
			if s.core == core {
				s.core = targets[i%len(targets)]
				i++
				mg.event("revoke.rehome", fmt.Sprintf("uproc=%s core=%d", s.name, s.core))
			}
		}
	}
	if e := mg.executors[core]; e != nil {
		mg.exec.put(e)
		delete(mg.executors, core)
	}
	mg.event("revoke.core", fmt.Sprintf("core=%d moved=%d", core, moved))
	return moved, nil
}

// ExecutorOn returns the executor bound to a granted core, if any.
func (mg *Manager) ExecutorOn(core int) *Executor { return mg.executors[core] }

// ExecCacheStats reports executor allocations and cache recycles since
// the manager entered cluster-managed mode.
func (mg *Manager) ExecCacheStats() (allocs, recycles int) {
	if mg.exec == nil {
		return 0, 0
	}
	return mg.exec.allocs, mg.exec.recycles
}

// Backlog is the domain's total runqueue depth (threads waiting for a
// core, not counting the ones running) — the queue-buildup signal the
// µs-latency cluster policy consumes.
func (mg *Manager) Backlog() int {
	total := 0
	for i := 0; i < mg.m.NumCores(); i++ {
		total += mg.Domain.QueueLen(i)
	}
	return total
}

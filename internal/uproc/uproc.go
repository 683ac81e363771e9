// Package uproc implements the uProcess abstraction (§4): applications that
// share one SMAS, enter a userspace privileged mode through the call gate,
// park voluntarily or are preempted by user interrupts, and are context
// switched between entirely in userspace — a core moves from one uProcess
// to another by restoring a saved stack pointer and writing a PKRU value,
// with no kernel involvement.
//
// A Domain wires together the substrates: SMAS (address space and message
// pipe), the call-gate runtime, UINTR routing, and the simulated kernel
// that hosts the kProcesses. Threads are scheduled from per-core FIFO
// queues exactly as §4.5 describes; the scheduler communicates with cores
// through per-core command queues plus a user interrupt.
package uproc

import (
	"fmt"

	"vessel/internal/callgate"
	"vessel/internal/cpu"
	"vessel/internal/fifo"
	"vessel/internal/kernel"
	"vessel/internal/mem"
	"vessel/internal/mpk"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	"vessel/internal/uintr"
)

// ThreadState tracks a uProcess thread through its lifecycle.
type ThreadState uint8

const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadParked
	ThreadDead
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadParked:
		return "parked"
	case ThreadDead:
		return "dead"
	default:
		return fmt.Sprintf("ThreadState(%d)", uint8(s))
	}
}

// UProcState tracks a uProcess.
type UProcState uint8

const (
	UProcRunning UProcState = iota
	UProcTerminated
)

// Thread is a uProcess thread: a register context, a stack inside the
// uProcess region, and scheduling state. Thread management is entirely
// userspace (§5.2.2): the kernel never sees these.
type Thread struct {
	ID int
	U  *UProc

	savedRegs [cpu.NumRegs]cpu.Word
	savedRSP  mem.Addr
	savedUIF  bool
	State     ThreadState

	// Switches counts context switches into this thread.
	Switches uint64
	// BurnCycles accumulates cycles executed since the thread's last
	// voluntary park — the watchdog's runaway signal. Preemption does not
	// reset it: a thread that only ever loses the core involuntarily is
	// exactly the thread the watchdog exists to catch.
	BurnCycles int64
}

// UProc is one uProcess.
type UProc struct {
	ID    int
	Name  string
	Image *smas.Image
	PKRU  mpk.PKRU
	State UProcState
	KProc *kernel.KProcess

	threads     []*Thread
	stackCursor mem.Addr
	// FaultSignals counts faults the runtime intercepted for this
	// uProcess (§4.3).
	FaultSignals int
}

// Threads returns the uProcess's threads.
func (u *UProc) Threads() []*Thread { return u.threads }

// SchedCommand is a scheduler→core message in the per-core FIFO (§4.3).
type SchedCommand struct {
	// Kill, when set, terminates the named uProcess on this core.
	Kill *UProc
	// Activate, when non-nil, enqueues a thread on the core before the
	// switch decision.
	Activate *Thread
}

// coreState is the runtime's per-core bookkeeping, conceptually in the
// runtime region.
type coreState struct {
	runq    fifo.Queue[*Thread]
	cmds    []SchedCommand
	current *Thread
	// receiver is the Uintr endpoint the scheduler signals (§4.3).
	receiver *uintr.Receiver
	// window is the receiver's deferred-delivery window, tracked while
	// the domain is observed.
	window uintrWindow
	// Preemptions counts Uintr-driven switches on this core.
	Preemptions uint64
	// Parks counts voluntary switches.
	Parks uint64
	// dispatchCycles is the core's cycle counter when current was
	// activated, so the watchdog can charge the elapsed slice to the
	// thread at the next gate boundary.
	dispatchCycles int64
	// releaseTo holds the re-home targets of a pending ReleaseCore: when
	// the offline core reaches its next gate boundary, switchNext drains
	// any remaining work onto these cores instead of dispatching. See
	// release.go.
	releaseTo []int
}

// Watchdog is the scheduler's per-uProcess cycle-budget policy: a thread
// that keeps burning cycles without a voluntary park is first counted as
// overrunning (past SoftBudgetCycles) and then, past HardBudgetCycles, its
// whole uProcess is killed — preempt-then-kill, so a runaway or wedged
// uProcess cannot monopolize a core indefinitely. Budgets are checked at
// gate boundaries (the preemption path), which is exactly where the real
// runtime regains control of the core.
type Watchdog struct {
	SoftBudgetCycles int64
	HardBudgetCycles int64
	// Overruns counts soft-budget violations observed at preemptions;
	// Kills counts uProcesses terminated for blowing the hard budget.
	Overruns uint64
	Kills    uint64
}

// Domain is a scheduling domain: a SMAS, its runtime, and the cores it
// manages.
type Domain struct {
	S       *smas.SMAS
	RT      *callgate.Runtime
	Machine *cpu.Machine
	Kernel  *kernel.Kernel
	Eng     *sim.Engine

	GatePark    *callgate.Gate
	GateSched   *callgate.Gate
	GateExit    *callgate.Gate
	GateSyscall *callgate.Gate

	// Sys is the runtime's syscall-interposition service (§5.2.4).
	Sys *SyscallTable

	handlerAddr mem.Addr
	// Sched is the scheduler-side UINTR sender: entry i targets core i.
	Sched *uintr.Sender

	// Watchdog, when non-nil, arms the cycle-budget policy that kills
	// runaway uProcesses at gate boundaries.
	Watchdog *Watchdog
	// Events, when non-nil, receives the containment event stream
	// (injections, contained faults, watchdog kills, reclaims) — the
	// determinism witness of the chaos harness.
	Events *trace.EventLog
	// ParkFilter, when non-nil, is consulted before a voluntary park takes
	// effect; returning false suppresses the yield, modelling a runaway
	// thread that stops calling park(). Installed by the fault injector.
	ParkFilter func(u *UProc) bool
	// OnActivate, when non-nil, observes every switch-in. The chaos
	// benchmarks measure survivor scheduling latency here, because
	// application images cannot carry Go hooks (the loader's code
	// inspection rejects them).
	OnActivate func(core int, t *Thread)
	// Obs, when non-nil, is the observability layer; install it with
	// AttachObs so the layer-1 hooks (WRPKRU, gate bodies, UINTR
	// dispositions, pkey lifecycle) are wired too.
	Obs *obs.Observer
	// Journey, when non-nil, is the request-journey tracer; install it
	// with AttachJourney so the crossing seams (gate invokes, SENDUIPI
	// dispositions with deferred-delivery windows, kills) feed the
	// flight recorder and deferred-window journeys.
	Journey *journey.Tracer
	// observed is set once the seam hooks that feed Obs and Journey are
	// installed (see observe.go).
	observed bool

	cores      []*coreState
	uprocs     []*UProc
	nextThread int
	privPKRU   mpk.PKRU
	// fenced marks cores withdrawn from placement by the self-healing
	// layer: a fenced core is never woken and never receives new threads.
	// See fence.go.
	fenced []bool
	// offline marks cores released back to the cluster by the two-level
	// scheduler: unlike fencing, release is reversible (AdmitCore) and
	// never kills the running thread — the core drains lazily at its next
	// gate boundary. See release.go.
	offline []bool
}

// event records into the containment event log, when one is attached.
func (d *Domain) event(name, detail string) { d.Events.Record(d.Eng.Now(), name, detail) }

// NewDomain builds a domain managing all cores of the machine.
func NewDomain(eng *sim.Engine, m *cpu.Machine) (*Domain, error) {
	s, err := smas.New(m, m.NumCores())
	if err != nil {
		return nil, err
	}
	d := &Domain{
		S:        s,
		RT:       callgate.NewRuntime(s),
		Machine:  m,
		Kernel:   kernel.New(eng, m.Costs),
		Eng:      eng,
		cores:    make([]*coreState, m.NumCores()),
		privPKRU: s.RuntimePKRU(),
		fenced:   make([]bool, m.NumCores()),
		offline:  make([]bool, m.NumCores()),
	}
	for i := range d.cores {
		d.cores[i] = &coreState{}
		if err := s.SetRuntimeStack(i, s.RuntimeStackTop(i)); err != nil {
			return nil, err
		}
	}

	// Privileged runtime functions. Costs model the bookkeeping the real
	// runtime performs beyond the gate instructions themselves; they are
	// calibrated so a park-path switch lands at Table 1's ~161 ns.
	if d.GatePark, err = d.RT.Register(callgate.FnPark, "park", d.parkImpl, 120); err != nil {
		return nil, err
	}
	if d.GateSched, err = d.RT.Register(callgate.FnSchedule, "schedule", d.schedImpl, 160); err != nil {
		return nil, err
	}
	if d.GateExit, err = d.RT.Register(callgate.FnExit, "exit", d.exitImpl, 120); err != nil {
		return nil, err
	}
	if err := d.initSyscalls(); err != nil {
		return nil, err
	}

	// The Uintr handler: discard the vector, save the registers the gate
	// sequence clobbers, enter the privileged mode via the schedule gate,
	// and restore before returning to the interrupted context. The saves
	// matter when delivery lands inside another gate's tail (after its
	// stage-3 WRPKRU dropped back to the application PKRU but before its
	// ret): the interrupted sequence still needs RAX/RBX/RCX/R8/R9, and
	// the thread's context is only captured at the schedule gate's
	// boundary — by which point the prologue has overwritten them.
	h := cpu.NewAssembler()
	h.Emit(cpu.AddImm{Dst: cpu.RSP, Imm: 8}) // discard the pushed vector
	h.Emit(cpu.Push{Src: cpu.RAX})
	h.Emit(cpu.Push{Src: cpu.RBX})
	h.Emit(cpu.Push{Src: cpu.RCX})
	h.Emit(cpu.Push{Src: cpu.R8})
	h.Emit(cpu.Push{Src: cpu.R9})
	h.Emit(cpu.Call{Target: d.GateSched.Entry})
	h.Emit(cpu.Pop{Dst: cpu.R9})
	h.Emit(cpu.Pop{Dst: cpu.R8})
	h.Emit(cpu.Pop{Dst: cpu.RCX})
	h.Emit(cpu.Pop{Dst: cpu.RBX})
	h.Emit(cpu.Pop{Dst: cpu.RAX})
	h.Emit(cpu.UiRet{})
	base := s.NextTextBase()
	code, err := h.Assemble(base)
	if err != nil {
		return nil, err
	}
	if _, err := s.InstallText(code, smas.RuntimeKey); err != nil {
		return nil, err
	}
	d.handlerAddr = base

	// Wire UINTR: one receiver per core, one scheduler-side sender whose
	// UITT index i routes to core i.
	d.Sched = uintr.NewSender(m.NumCores(), m.Costs, nil)
	for i := 0; i < m.NumCores(); i++ {
		r := uintr.NewReceiver(i, d.handlerAddr)
		d.cores[i].receiver = r
		if err := d.Sched.Register(i, r, uint8(callgate.FnSchedule)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// CreateUProc forks a hosting kProcess, attaches SMAS to it, loads the
// program, and creates the main thread (§5.1).
func (d *Domain) CreateUProc(name string, p *smas.Program) (*UProc, error) {
	kp, _ := d.Kernel.Fork(d.Machine.Phys, 1000, 0)
	if err := d.S.AttachKProcess(kp.AS); err != nil {
		return nil, err
	}
	img, err := d.S.Load(p)
	if err != nil {
		return nil, err
	}
	u := &UProc{
		ID:          len(d.uprocs),
		Name:        name,
		Image:       img,
		PKRU:        d.S.AppPKRU(img.Region.Key),
		KProc:       kp,
		stackCursor: img.Region.StackTop,
	}
	d.uprocs = append(d.uprocs, u)
	if _, err := d.NewThread(u, img.Entry); err != nil {
		return nil, err
	}
	return u, nil
}

// UProcs returns the domain's uProcesses.
func (d *Domain) UProcs() []*UProc { return d.uprocs }

// threadStackSize is each thread's stack reservation.
const threadStackSize = mem.PageSize

// NewThread creates a thread whose first activation jumps to entry
// (pthread_create in §5.2.2: stack + context allocated in userspace).
func (d *Domain) NewThread(u *UProc, entry mem.Addr) (*Thread, error) {
	if u.State == UProcTerminated {
		return nil, fmt.Errorf("uproc: %s is terminated", u.Name)
	}
	top := u.stackCursor
	if top-threadStackSize < u.Image.HeapBase {
		return nil, fmt.Errorf("uproc: %s: out of stack space", u.Name)
	}
	u.stackCursor -= threadStackSize
	// Seed the stack so the gate's final ret lands on the entry point.
	rsp := top - 8
	if f := d.S.AS.Write(rsp, 8, uint64(entry), d.S.RuntimePKRU()); f != nil {
		return nil, f
	}
	t := &Thread{
		ID:       d.nextThread,
		U:        u,
		savedRSP: rsp,
		savedUIF: true,
		State:    ThreadRunnable,
	}
	d.nextThread++
	u.threads = append(u.threads, t)
	return t, nil
}

// AttachThread queues t on core's FIFO runqueue.
func (d *Domain) AttachThread(core int, t *Thread) {
	d.cores[core].runq.Push(t)
}

// QueueLen returns the number of threads queued on a core (not including
// current).
func (d *Domain) QueueLen(core int) int { return d.cores[core].runq.Len() }

// Runqueue returns a copy of the threads queued on a core (not including
// current), oldest first.
func (d *Domain) Runqueue(core int) []*Thread {
	q := &d.cores[core].runq
	out := make([]*Thread, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

// Migrate moves a queued thread from one core's FIFO to another's — the
// §4.5 load-balancing primitive ("the scheduler reassigns these threads to
// underloaded cores"). A thread currently running cannot be migrated; the
// scheduler preempts it first, after which it sits in a FIFO.
func (d *Domain) Migrate(t *Thread, from, to int) error {
	if from < 0 || from >= len(d.cores) || to < 0 || to >= len(d.cores) {
		return fmt.Errorf("uproc: core out of range")
	}
	if d.cores[from].current == t {
		return fmt.Errorf("uproc: thread %d is running on core %d; preempt it first", t.ID, from)
	}
	// Rotate the source queue once, leaving t out and everything else in
	// order.
	rq, found := &d.cores[from].runq, false
	for n := rq.Len(); n > 0; n-- {
		if q := rq.Pop(); q != t || found {
			rq.Push(q)
		} else {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("uproc: thread %d not queued on core %d", t.ID, from)
	}
	d.cores[to].runq.Push(t)
	return nil
}

// Current returns the thread running on a core.
func (d *Domain) Current(core int) *Thread { return d.cores[core].current }

// CoreStats returns (parks, preemptions) for a core.
func (d *Domain) CoreStats(core int) (uint64, uint64) {
	return d.cores[core].Parks, d.cores[core].Preemptions
}

// StartCore dispatches the first queued thread onto the core and prepares
// the core's architectural state. The core is then stepped by the caller.
func (d *Domain) StartCore(coreID int) error {
	cs := d.cores[coreID]
	c := d.Machine.Core(coreID)
	c.AS = d.S.AS
	c.PrivilegedPKRU = &d.privPKRU
	c.Hooks.OnFault = d.faultHook
	cs.receiver.Attach(c)
	if d.offline[coreID] {
		// The core is not granted to this domain: install the hooks (so a
		// later AdmitCore + Wake finds the core ready) but dispatch
		// nothing.
		c.Halted = true
		return nil
	}
	t := d.popRunnable(cs)
	if t == nil {
		// No tenant yet: park the core in its UMWAIT idle state instead
		// of failing with the architectural hooks half-installed (which
		// would leave it poised to execute from PC 0). Wake dispatches
		// the first thread once one is queued — a later launch, a clone,
		// or a supervised restart.
		c.Halted = true
		return nil
	}
	d.activate(c, cs, t)
	return d.dispatch(c)
}

// dispatch installs the architectural state for the core's current thread
// outside a gate: PC from the return address at the saved RSP, stack
// popped past it, PKRU from the task map. Used for first activations and
// idle wakeups, where no gate epilogue will perform the restore.
func (d *Domain) dispatch(c *cpu.Core) error {
	rsp, pkru, _, err := d.S.Task(c.ID)
	if err != nil {
		return err
	}
	v, f := d.S.AS.Read(rsp, 8, d.S.RuntimePKRU())
	if f != nil {
		return f
	}
	c.PC = mem.Addr(v)
	c.Regs[cpu.RSP] = uint64(rsp + 8)
	c.PKRU = pkru
	c.Halted = false
	return nil
}

// Wake brings an idle (UMWAIT-halted) core back: pending commands are
// drained and the next runnable thread dispatched. It reports whether the
// core is now running a thread.
func (d *Domain) Wake(coreID int) (bool, error) {
	cs := d.cores[coreID]
	c := d.Machine.Core(coreID)
	if c.Fault != nil {
		// A fail-stopped core (uncontained fault) stays down; waking it
		// would resume execution over corrupted runtime state.
		return false, nil
	}
	if c.Stalled {
		// A wedged core retires nothing and its cycle counter is frozen:
		// dispatching onto it would strand the thread as its current and
		// charge a UMWAIT exit it never makes. Work stays queued.
		return false, nil
	}
	if d.fenced[coreID] {
		// A fenced core has been withdrawn from placement by the
		// self-healing layer; its work was drained elsewhere.
		return false, nil
	}
	if d.offline[coreID] {
		// An offline core belongs to another domain now (or is in the
		// cluster's free pool); its runqueue was re-homed at release.
		return false, nil
	}
	if cs.current != nil && !c.Halted {
		return true, nil
	}
	d.drainCommands(cs)
	t := d.popRunnable(cs)
	if t == nil {
		return false, nil
	}
	// Model the UMWAIT exit cost.
	c.Cycles += int64(float64(d.Machine.Costs.UmwaitWake) * d.Machine.Costs.ClockGHz)
	d.activate(c, cs, t)
	if err := d.dispatch(c); err != nil {
		return false, err
	}
	c.UIF = t.savedUIF
	return true, nil
}

// popRunnable pops the next live thread from the core FIFO, reaping
// threads of terminated uProcesses.
func (d *Domain) popRunnable(cs *coreState) *Thread {
	for cs.runq.Len() > 0 {
		t := cs.runq.Pop()
		if t.U.State == UProcTerminated || t.State == ThreadDead {
			t.State = ThreadDead
			continue
		}
		return t
	}
	return nil
}

// activate makes t the core's current thread: restores its register file
// and publishes its RSP/PKRU in the task map for the gate epilogue.
func (d *Domain) activate(c *cpu.Core, cs *coreState, t *Thread) {
	cs.current = t
	t.State = ThreadRunning
	t.Switches++
	cs.dispatchCycles = c.Cycles
	if d.OnActivate != nil {
		d.OnActivate(c.ID, t)
	}
	// Restore the thread's register file — except RSP: while inside the
	// runtime function the core still runs on the runtime stack, and the
	// gate epilogue reloads the task's RSP from the task map.
	rsp := c.Regs[cpu.RSP]
	c.Regs = t.savedRegs
	c.Regs[cpu.RSP] = rsp
	c.UIF = t.savedUIF
	if d.S.Virtual() {
		// Virtualized protection keys: the region's hardware slot may
		// have moved (or been evicted) since this thread last ran. Touch
		// pins the virtual key to this core, refills it if evicted, and
		// returns the slot the PKRU must grant; re-tagged pages are
		// charged to the core like the pkey_mprotect calls they model.
		slot, pages, err := d.S.TouchRegion(t.U.Image.Region, c.ID)
		if err != nil {
			panic(fmt.Sprintf("uproc: virtual key refill for %s failed: %v", t.U.Name, err))
		}
		if pages > 0 {
			c.Cycles += int64(pages) * d.Machine.Costs.PkeyRetagPage
		}
		t.U.PKRU = d.S.AppPKRU(slot)
	}
	if err := d.S.SetTask(c.ID, t.savedRSP, t.U.PKRU, uint64(t.ID)); err != nil {
		panic(fmt.Sprintf("uproc: task map update failed: %v", err))
	}
}

// saveCurrent captures the current thread's context at a gate boundary.
func (d *Domain) saveCurrent(c *cpu.Core, cs *coreState) *Thread {
	t := cs.current
	if t == nil {
		return nil
	}
	rsp, _, _, err := d.S.Task(c.ID)
	if err != nil {
		panic(fmt.Sprintf("uproc: task map read failed: %v", err))
	}
	t.savedRegs = c.Regs
	t.savedRSP = rsp
	t.savedUIF = c.UIF
	// Charge the slice just executed to the thread's watchdog budget.
	t.BurnCycles += c.Cycles - cs.dispatchCycles
	cs.dispatchCycles = c.Cycles
	return t
}

// switchNext installs the next runnable thread, or halts the core into the
// idle (UMWAIT) state when none exists. On a core released back to the
// cluster it instead drains remaining work onto the release targets and
// halts — the lazy half of ReleaseCore, landing exactly at the gate
// boundary where thread contexts are capturable.
func (d *Domain) switchNext(c *cpu.Core, cs *coreState) {
	if d.offline[c.ID] {
		d.finishRelease(c, cs)
		return
	}
	if t := d.popRunnable(cs); t != nil {
		d.activate(c, cs, t)
		return
	}
	cs.current = nil
	c.Halted = true
	// An idle core grants no application key: release its virtual-key pin
	// so the last thread's key becomes evictable.
	d.S.UnpinCore(c.ID)
}

// drainCommands applies pending scheduler commands on a core. Kill
// commands terminate uProcesses lazily, exactly as §5.1 describes: cores
// see the command the next time they are in privileged mode.
func (d *Domain) drainCommands(cs *coreState) {
	for _, cmd := range cs.cmds {
		if cmd.Kill != nil {
			d.terminate(cmd.Kill)
		}
		if cmd.Activate != nil {
			cs.runq.Push(cmd.Activate)
		}
	}
	cs.cmds = cs.cmds[:0]
}

// terminate marks a uProcess dead. Its threads are reaped lazily: queued
// threads by popRunnable, running threads when their core next enters
// privileged mode — the §4.3/§5.1 lazy-termination protocol.
func (d *Domain) terminate(u *UProc) {
	u.State = UProcTerminated
	if d.Sys != nil {
		d.Sys.CloseAll(u)
	}
}

// parkImpl is the FnPark runtime function (§4.4): voluntary yield.
func (d *Domain) parkImpl(c *cpu.Core) *mem.Fault {
	cs := d.cores[c.ID]
	if cur := cs.current; cur != nil && d.ParkFilter != nil && !d.ParkFilter(cur.U) {
		// Fault injection: the park is suppressed, modelling a thread
		// that stops yielding. Charge the elapsed slice so the burn
		// budget keeps accruing until preemption and, eventually, the
		// watchdog reclaim the core.
		cur.BurnCycles += c.Cycles - cs.dispatchCycles
		cs.dispatchCycles = c.Cycles
		return nil
	}
	cs.Parks++
	t := cs.current
	d.requeueCurrent(c, cs)
	if t != nil {
		// A voluntary yield is cooperative behaviour: reset the
		// watchdog budget.
		t.BurnCycles = 0
	}
	d.switchNext(c, cs)
	return nil
}

// requeueCurrent drains scheduler commands, saves the current thread, and
// either requeues it or reaps it if its uProcess died.
func (d *Domain) requeueCurrent(c *cpu.Core, cs *coreState) {
	d.drainCommands(cs)
	t := d.saveCurrent(c, cs)
	if t == nil {
		return
	}
	if t.State == ThreadDead || t.U.State == UProcTerminated {
		t.State = ThreadDead
		return
	}
	t.State = ThreadRunnable
	cs.runq.Push(t)
}

// schedImpl is the FnSchedule runtime function, reached from the Uintr
// handler (§4.3): apply the scheduler's commands and reschedule.
func (d *Domain) schedImpl(c *cpu.Core) *mem.Fault {
	cs := d.cores[c.ID]
	cs.Preemptions++
	t := cs.current
	d.requeueCurrent(c, cs)
	// Watchdog check at the preemption boundary: the budget was just
	// updated by saveCurrent inside requeueCurrent.
	if wd := d.Watchdog; wd != nil && t != nil && t.State == ThreadRunnable {
		if wd.HardBudgetCycles > 0 && t.BurnCycles > wd.HardBudgetCycles {
			wd.Kills++
			d.event("watchdog.kill", fmt.Sprintf("core=%d uproc=%s thread=%d burn=%d", c.ID, t.U.Name, t.ID, t.BurnCycles))
			d.obsKill(c, "watchdog", t.U.Name)
			d.killUProc(t.U, c.ID)
		} else if wd.SoftBudgetCycles > 0 && t.BurnCycles > wd.SoftBudgetCycles {
			wd.Overruns++
		}
	}
	d.switchNext(c, cs)
	return nil
}

// exitImpl is the FnExit runtime function: the current thread finishes.
func (d *Domain) exitImpl(c *cpu.Core) *mem.Fault {
	cs := d.cores[c.ID]
	d.drainCommands(cs)
	if t := cs.current; t != nil {
		t.State = ThreadDead
	}
	d.switchNext(c, cs)
	return nil
}

// Preempt sends the scheduler's command to a core and kicks it with a user
// interrupt — the preemption path of Figure 6, steps ① and ②. A core idling
// in UMWAIT is woken instead (UMWAIT monitors the command queue's address
// range, so the write itself is the wake signal).
func (d *Domain) Preempt(core int, cmd SchedCommand) error {
	cs := d.cores[core]
	cs.cmds = append(cs.cmds, cmd)
	c := d.Machine.Core(core)
	if cs.current == nil && c.Halted {
		_, err := d.Wake(core)
		return err
	}
	_, err := d.Sched.SendUIPI(core)
	return err
}

// killUProc is the shared containment kill path (fault attribution and the
// watchdog both land here): terminate the uProcess now on the calling core
// and push kill commands to every other core's queue so siblings die
// lazily at their next privileged entry (§4.3: "only needs to push the
// signal into FIFO queues of all related cores, instead of sending
// Uintrs").
func (d *Domain) killUProc(u *UProc, fromCore int) {
	d.terminate(u)
	for i, other := range d.cores {
		if i != fromCore {
			other.cmds = append(other.cmds, SchedCommand{Kill: u})
		}
	}
}

// DestroyUProc terminates a uProcess: kill commands are pushed to every
// core's queue (processed at their next privileged entry), and the region
// is reclaimed once no core still runs it (here: immediately after marking,
// since region reuse is guarded by key allocation).
func (d *Domain) DestroyUProc(u *UProc) error {
	for i := range d.cores {
		d.cores[i].cmds = append(d.cores[i].cmds, SchedCommand{Kill: u})
		// Kick busy cores so lazy termination converges; idle cores
		// will drain the command on their next activation.
		if d.cores[i].current != nil {
			if _, err := d.Sched.SendUIPI(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunningOn returns the ID of a core whose current thread belongs to u, or
// -1 when no core still runs the uProcess.
func (d *Domain) RunningOn(u *UProc) int {
	for i, cs := range d.cores {
		if cs.current != nil && cs.current.U == u {
			return i
		}
	}
	return -1
}

// ReclaimRegion frees a terminated uProcess's region and key. It refuses
// while any core still runs a thread of u: freeing the key then would let
// the allocator hand it to a new tenant while the old thread's PKRU still
// grants access — the stale-key reuse pitfall libmpk warns about. Lazy
// termination means the caller simply retries after the straggler core's
// next privileged entry.
func (d *Domain) ReclaimRegion(u *UProc) error {
	if u.State != UProcTerminated {
		return fmt.Errorf("uproc: %s still running", u.Name)
	}
	if core := d.RunningOn(u); core >= 0 {
		return fmt.Errorf("uproc: %s still on core %d; key %d must not be recycled under it", u.Name, core, u.Image.Region.Key)
	}
	d.event("reclaim", fmt.Sprintf("uproc=%s key=%d", u.Name, u.Image.Region.Key))
	return d.S.FreeRegion(u.Image.Region)
}

// faultHook is the kernel-initiated signal path of §4.3: a memory fault in
// uProcess code is intercepted by the runtime's pre-registered SIGSEGV
// handler, which identifies the faulty uProcess from CPUID_TO_TASK_MAP,
// broadcasts termination to all cores running it (via their command
// queues, not extra Uintrs), and reschedules this core.
func (d *Domain) faultHook(c *cpu.Core, f *mem.Fault) bool {
	cs := d.cores[c.ID]
	cur := cs.current
	if cur == nil {
		d.event("fatal.fault", fmt.Sprintf("core=%d addr=%#x kind=%d", c.ID, uint64(f.Addr), f.Kind))
		return false // fault outside any uProcess: fatal
	}
	if c.PKRU == d.privPKRU {
		d.event("fatal.runtime", fmt.Sprintf("core=%d uproc=%s addr=%#x kind=%d", c.ID, cur.U.Name, uint64(f.Addr), f.Kind))
		return false // fault in the trusted runtime: fatal by design
	}
	// Charge the kernel's signal delivery: the fault itself still traps.
	d.Kernel.SendSignal(cur.U.KProc, kernel.SIGSEGV)
	cur.U.FaultSignals++
	cur.State = ThreadDead
	d.event("contain.fault", fmt.Sprintf("core=%d uproc=%s addr=%#x kind=%d", c.ID, cur.U.Name, uint64(f.Addr), f.Kind))
	d.obsKill(c, "fault", cur.U.Name)
	d.killUProc(cur.U, c.ID)
	d.switchNext(c, cs)
	if cs.current == nil {
		// The fault was contained but nothing is left to run: the core
		// idles (UMWAIT) cleanly, with no Fault recorded, and can be
		// woken later — a crashed tenant must not look like a crashed
		// core. switchNext already halted it.
		return true
	}
	// Resume the next thread directly (the faulting instruction never
	// completes): emulate the gate's restore from the task map.
	return d.dispatch(c) == nil
}

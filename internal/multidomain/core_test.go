package multidomain

import (
	"fmt"
	"reflect"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/smas"
	"vessel/internal/vessel"
)

// recorder is a Part that logs every hook call. Domain 0 is live, domain
// 1 is not; idle is what Idle answers.
type recorder struct {
	idle  bool
	calls []string
}

func (r *recorder) Live(d int) bool { return d == 0 }

func (r *recorder) Admit(d, core int) bool {
	r.calls = append(r.calls, fmt.Sprintf("admit d%d c%d", d, core))
	return true
}

func (r *recorder) Idle(d, core int) bool {
	r.calls = append(r.calls, fmt.Sprintf("idle d%d c%d", d, core))
	return r.idle
}

func (r *recorder) AfterRun(d, core int, _ *cpu.Core, ran int) error {
	r.calls = append(r.calls, fmt.Sprintf("run d%d c%d ran=%d", d, core, ran))
	return nil
}

func parkLoop(mg *vessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// TestRoundCallSequence drives the shared round over a 3-core domain with
// a fail-stopped core 0, a stalled core 1 and an idle-halted core 2: only
// core 2 reaches Idle, it runs its quantum only when Idle says so, and
// the round reports progress only once it has a thread to run.
func TestRoundCallSequence(t *testing.T) {
	const quantum = 200
	c := New(2, 3, false, nil)
	for d := 0; d < 2; d++ {
		mg, err := c.NewManager(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		for core := 0; core < 2; core++ {
			name := fmt.Sprintf("p%d", core)
			if _, err := mg.Launch(name, parkLoop(mg, name), core); err != nil {
				t.Fatal(err)
			}
		}
		for core := 0; core < 3; core++ {
			if err := mg.Start(core); err != nil {
				t.Fatal(err)
			}
		}
	}
	mg := c.Manager(0)
	m := mg.Machine()
	m.Core(0).Fault = &mem.Fault{Addr: smas.RuntimeBase, Kind: mem.FaultPKU}
	m.Core(0).Halted = true
	m.Core(1).Stalled = true
	if !m.Core(2).Halted {
		t.Fatal("core 2 has nothing to run but is not halted")
	}

	round := func(r *recorder, wantProgress, wantAdvance bool, want ...string) {
		t.Helper()
		progressed, advanced, err := c.Round(r, quantum)
		if err != nil {
			t.Fatal(err)
		}
		if progressed != wantProgress || advanced != wantAdvance {
			t.Fatalf("progressed=%v advanced=%v, want %v %v", progressed, advanced, wantProgress, wantAdvance)
		}
		if !reflect.DeepEqual(r.calls, want) {
			t.Fatalf("calls:\n%q\nwant:\n%q", r.calls, want)
		}
	}
	idleCycles := c.Manager(1).Machine().Core(0).Cycles
	admits := []string{"admit d0 c0", "admit d0 c1", "admit d0 c2"}

	// Idle declines: the empty core is woken, found idle and skipped.
	round(&recorder{}, false, false, append(admits, "idle d0 c2")...)
	// Idle accepts: the empty core runs its quantum and retires nothing.
	round(&recorder{idle: true}, false, false, append(admits, "idle d0 c2", "run d0 c2 ran=0")...)

	// With a thread queued, the wake dispatches it and it runs a full
	// quantum; the clock catches up to it.
	if _, err := mg.Launch("late", parkLoop(mg, "late"), 2); err != nil {
		t.Fatal(err)
	}
	round(&recorder{}, true, true, append(admits, fmt.Sprintf("run d0 c2 ran=%d", quantum))...)
	if now, at := c.Eng.Now(), mg.CoreTime(); now != at {
		t.Fatalf("clock %v, want the farthest core's time %v", now, at)
	}
	// The domain that is not live never ran a cycle.
	if got := c.Manager(1).Machine().Core(0).Cycles; got != idleCycles {
		t.Fatalf("domain 1 core 0 ran: cycles %d, want %d", got, idleCycles)
	}
}

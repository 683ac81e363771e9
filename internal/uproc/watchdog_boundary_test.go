package uproc

import (
	"strconv"
	"strings"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/smas"
	"vessel/internal/trace"
)

// bulkWorkProgram spins on a Work{n} instruction: each retirement charges n
// cycles in one lump, the worst case for budget-boundary accounting.
func bulkWorkProgram(name string, n int64) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.Work{N: n})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// wdRun drives one runaway under the watchdog with a fixed quantum and
// returns the burn reported at the kill, the burns observed at every
// preemption boundary before it, and the full event log.
func wdRun(t *testing.T, prog func(string) *smas.Program, hard int64, mode cpu.ExecMode) (killBurn int64, boundary []int64, log string) {
	t.Helper()
	d := newDomain(t, 1)
	d.Machine.SetExecMode(mode)
	d.Watchdog = &Watchdog{HardBudgetCycles: hard}
	d.Events = trace.NewEventLog(4096)
	u, err := d.CreateUProc("spin", prog("spin"))
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, u.Threads()[0])
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	for round := 0; round < 200 && u.State != UProcTerminated; round++ {
		core.Run(400)
		if err := d.Preempt(0, SchedCommand{}); err != nil {
			t.Fatal(err)
		}
		core.Run(100) // deliver the Uintr, cross the gate, land the check
		if u.State != UProcTerminated {
			boundary = append(boundary, u.Threads()[0].BurnCycles)
		}
	}
	if u.State != UProcTerminated {
		t.Fatalf("runaway survived: burn=%d", u.Threads()[0].BurnCycles)
	}
	log = d.Events.String()
	i := strings.Index(log, "burn=")
	if i < 0 {
		t.Fatalf("no burn in watchdog.kill event:\n%s", log)
	}
	f := strings.Fields(log[i+len("burn="):])[0]
	killBurn, err = strconv.ParseInt(f, 10, 64)
	if err != nil {
		t.Fatalf("burn field %q: %v", f, err)
	}
	return killBurn, boundary, log
}

// TestWatchdogKillsAtFirstBoundaryPastBudget pins the boundary semantics:
// the kill lands at the FIRST preemption boundary whose accrued burn
// exceeds the hard budget — never a boundary early (a boundary at or under
// budget must survive) and never a boundary late (overshoot is bounded by
// one quantum's charge).
func TestWatchdogKillsAtFirstBoundaryPastBudget(t *testing.T) {
	const hard = 6000
	killBurn, boundary, _ := wdRun(t, spinProgram, hard, cpu.Fused)
	if killBurn <= hard {
		t.Fatalf("killed at burn %d, budget %d not yet blown", killBurn, hard)
	}
	var prev int64
	for i, b := range boundary {
		if b > hard {
			t.Fatalf("boundary %d survived with burn %d > budget %d", i, b, hard)
		}
		if b < prev {
			t.Fatalf("burn not monotone across boundaries: %v", boundary)
		}
		prev = b
	}
	// Overshoot past the budget is bounded by a single quantum's charge:
	// the slice between the last surviving boundary and the kill.
	if overshoot := killBurn - hard; overshoot > killBurn-prev {
		t.Fatalf("overshoot %d exceeds one quantum's charge %d", overshoot, killBurn-prev)
	}
}

// TestWatchdogBoundaryBulkCharge repeats the boundary check with a bulk
// Work instruction charging 900 cycles per retirement — a single
// instruction can step burn straight over the budget, and the accounting
// must neither kill early nor lose the lumpy charge.
func TestWatchdogBoundaryBulkCharge(t *testing.T) {
	const hard = 6000
	killBurn, boundary, _ := wdRun(t, func(name string) *smas.Program {
		return bulkWorkProgram(name, 900)
	}, hard, cpu.Fused)
	if killBurn <= hard {
		t.Fatalf("killed at burn %d under budget %d", killBurn, hard)
	}
	for i, b := range boundary {
		if b > hard {
			t.Fatalf("boundary %d survived with burn %d > budget %d", i, b, hard)
		}
	}
}

// TestWatchdogBoundaryFastPathInvisible is the PR-5 regression: the
// decoded-fetch cache and bulk batching must not move the kill boundary by
// a single cycle. The entire event history — kill included — must be
// byte-identical with the fast path on and off, for both per-instruction
// and bulk-charge workloads.
func TestWatchdogBoundaryFastPathInvisible(t *testing.T) {
	t.Parallel()
	progs := map[string]func(string) *smas.Program{
		"spin": spinProgram,
		"bulk": func(name string) *smas.Program { return bulkWorkProgram(name, 900) },
	}
	for name, prog := range progs {
		fastBurn, fastB, fastLog := wdRun(t, prog, 6000, cpu.Fused)
		slowBurn, slowB, slowLog := wdRun(t, prog, 6000, cpu.Slow)
		if fastBurn != slowBurn {
			t.Fatalf("%s: kill burn fast=%d slow=%d", name, fastBurn, slowBurn)
		}
		if len(fastB) != len(slowB) {
			t.Fatalf("%s: boundary count fast=%d slow=%d", name, len(fastB), len(slowB))
		}
		for i := range fastB {
			if fastB[i] != slowB[i] {
				t.Fatalf("%s: boundary %d burn fast=%d slow=%d", name, i, fastB[i], slowB[i])
			}
		}
		if fastLog != slowLog {
			t.Fatalf("%s: event logs diverge with fast path:\nfast:\n%s\nslow:\n%s", name, fastLog, slowLog)
		}
	}
}

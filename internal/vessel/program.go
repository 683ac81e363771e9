package vessel

// The program builder and the per-core readouts of the mechanism-level
// public API: small applications assembled against a domain's call gates
// without exposing the instruction set, and the counters the examples and
// benchmarks read back.

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/smas"
	"vessel/internal/vpkey"
)

// NumCores returns the domain's core count.
func (mg *Manager) NumCores() int { return mg.m.NumCores() }

// Stats returns (voluntary parks, Uintr preemptions) for a core.
func (mg *Manager) Stats(core int) (parks, preemptions uint64) {
	return mg.Domain.CoreStats(core)
}

// CyclesNs returns the virtual nanoseconds core has executed.
func (mg *Manager) CyclesNs(core int) float64 {
	return mg.m.NsFor(mg.m.Core(core).Cycles)
}

// VPkey returns the domain's virtual protection-key table, or nil when
// keys are not virtualized.
func (mg *Manager) VPkey() *vpkey.Table { return mg.Domain.S.VKeys }

// ProgramBuilder assembles small applications against a manager's gates
// without exposing the instruction set. State that must survive park() and
// preemption is kept in gate-preserved registers.
type ProgramBuilder struct {
	mgr  *Manager
	asm  *cpu.Assembler
	name string
	loop int
	err  error
}

// NewProgram starts building a program for this manager's domain.
func (mg *Manager) NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{mgr: mg, asm: cpu.NewAssembler(), name: name}
}

// Compute emits a block of application work costing the given cycles.
func (b *ProgramBuilder) Compute(cycles int64) *ProgramBuilder {
	if cycles <= 0 {
		b.fail("Compute cycles must be positive")
		return b
	}
	b.asm.Emit(cpu.Work{N: cycles})
	return b
}

// Park emits a voluntary yield through the park call gate (§4.4).
func (b *ProgramBuilder) Park() *ProgramBuilder {
	b.asm.Emit(cpu.Call{Target: b.mgr.Domain.GatePark.Entry})
	return b
}

// Exit emits uProcess-thread termination through the exit gate.
func (b *ProgramBuilder) Exit() *ProgramBuilder {
	b.asm.Emit(cpu.Call{Target: b.mgr.Domain.GateExit.Entry})
	return b
}

// Repeat emits body n times around a counted loop. Repeat must not nest
// (the loop counter lives in one preserved register).
func (b *ProgramBuilder) Repeat(n uint64, body func(*ProgramBuilder)) *ProgramBuilder {
	if n == 0 {
		b.fail("Repeat count must be positive")
		return b
	}
	if b.loop > 0 {
		b.fail("Repeat must not nest")
		return b
	}
	b.loop++
	label := fmt.Sprintf("loop%d", b.asm.Len())
	b.asm.Emit(cpu.MovImm{Dst: cpu.RSI, Imm: n})
	b.asm.Label(label)
	body(b)
	b.asm.LoopTo(cpu.RSI, label)
	b.loop--
	return b
}

// Forever emits body in an infinite loop (the program never exits; it is
// scheduled in and out via park/preemption).
func (b *ProgramBuilder) Forever(body func(*ProgramBuilder)) *ProgramBuilder {
	label := fmt.Sprintf("fwd%d", b.asm.Len())
	b.asm.Label(label)
	body(b)
	b.asm.JmpTo(label)
	return b
}

func (b *ProgramBuilder) fail(msg string) {
	if b.err == nil {
		b.err = fmt.Errorf("vessel: program %q: %s", b.name, msg)
	}
}

// Build finalises the program image (PIE, one data page, two stack pages
// per default; the loader re-inspects the code at load time).
func (b *ProgramBuilder) Build() (*smas.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.asm.Len() == 0 {
		return nil, fmt.Errorf("vessel: program %q is empty", b.name)
	}
	return &smas.Program{
		Name:      b.name,
		Asm:       b.asm,
		PIE:       true,
		DataSize:  mem.PageSize,
		StackSize: 4 * mem.PageSize,
	}, nil
}

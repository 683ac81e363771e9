// Package hostbench holds the host-time benchmark bodies that cmd/bench
// gates and the `go test -bench` wrappers in the repository root share.
//
// The MMU bodies take a *testing.B; cmd/bench runs them through
// testing.Benchmark. Their Slow variants measure the same operation with
// the fast path off (per-byte walks, direct page-table Check), so a
// single process yields a machine-independent speedup ratio. The RNG
// bodies pair sim.RNG.Exp with its reference formula the same way. The
// journey body runs a fixed number of paired iterations, which
// testing.Benchmark cannot do, so it is a plain function.
package hostbench

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/mpk"
)

const (
	textBase  = mem.Addr(0x1000)
	dataBase  = mem.Addr(0x10000)
	stackBase = mem.Addr(0x20000)
)

// env builds the standard one-core machine: an exec-only text page, four
// RW data pages, and a stack page.
func env(b *testing.B) (*cpu.Machine, *cpu.Core, *mem.AddressSpace) {
	b.Helper()
	m := cpu.NewMachine(1, cpu.Default())
	as := mem.NewAddressSpace(m.Phys)
	if err := as.MapRange(textBase, mem.PageSize, mem.PermXOnly, 0); err != nil {
		b.Fatal(err)
	}
	if err := as.MapRange(dataBase, 4*mem.PageSize, mem.PermRW, 0); err != nil {
		b.Fatal(err)
	}
	if err := as.MapRange(stackBase, mem.PageSize, mem.PermRW, 0); err != nil {
		b.Fatal(err)
	}
	c := m.Core(0)
	c.AS = as
	c.PKRU = mpk.AllowAllValue
	c.PC = textBase
	c.Regs[cpu.RSP] = cpu.Word(stackBase) + cpu.Word(mem.PageSize)
	return m, c, as
}

// stepProgram is the Step workload: an endless loop mixing ALU ops, loads,
// stores, and stack traffic — the instruction mix of a busy uProcess inner
// loop, with no faults and no halts.
func stepProgram(b *testing.B, m *cpu.Machine, as *mem.AddressSpace) {
	b.Helper()
	a := cpu.NewAssembler()
	a.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: cpu.Word(dataBase)})
	a.Emit(cpu.MovImm{Dst: cpu.RBX, Imm: 27})
	a.Label("loop")
	a.Emit(cpu.Store{Src: cpu.RBX, Base: cpu.RCX, Off: 0})
	a.Emit(cpu.Load{Dst: cpu.RDX, Base: cpu.RCX, Off: 0})
	a.Emit(cpu.AddImm{Dst: cpu.RBX, Imm: 3})
	a.Emit(cpu.Push{Src: cpu.RBX})
	a.Emit(cpu.Pop{Dst: cpu.RDX})
	a.JmpTo("loop")
	prog, err := a.Assemble(textBase)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.InstallCode(as, textBase, prog); err != nil {
		b.Fatal(err)
	}
}

// BenchCoreStep measures ns per simulated instruction on the default
// path: superblock fusion over the software TLB + decoded-fetch cache.
// The non-faulting run must not allocate: cmd/bench fails if allocs/op
// is nonzero.
func BenchCoreStep(b *testing.B) { benchCoreStep(b, cpu.Fused) }

// BenchCoreStepNoSB is the same workload with superblock fusion disabled
// but the TLB/decoded-fetch cache fast path on — the per-instruction Step
// loop the superblock gate is measured against.
func BenchCoreStepNoSB(b *testing.B) { benchCoreStep(b, cpu.PerInstr) }

// BenchCoreStepSlow is the same workload with the fast path disabled — the
// pre-optimization per-access page-table walk (which also forgoes fusion).
func BenchCoreStepSlow(b *testing.B) { benchCoreStep(b, cpu.Slow) }

// benchCoreStep runs the Step workload on a machine in mode.
func benchCoreStep(b *testing.B, mode cpu.ExecMode) {
	m, c, as := env(b)
	m.SetExecMode(mode)
	stepProgram(b, m, as)
	c.Run(64) // warm the superblock store, decoded-fetch cache, and TLB
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(b.N)
	if c.Fault != nil {
		b.Fatal(c.Fault)
	}
}

// BenchASCheckHit measures a warm-TLB translation: the per-access cost every
// load, store, and fetch pays on the fast path.
func BenchASCheckHit(b *testing.B) {
	_, _, as := env(b)
	var tlb mem.TLB
	var f mem.Fault
	if as.CheckVia(&tlb, dataBase+8, mpk.AccessRead, mpk.AllowAllValue, &f) == nil {
		b.Fatal(&f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as.CheckVia(&tlb, dataBase+8, mpk.AccessRead, mpk.AllowAllValue, &f) == nil {
			b.Fatal(&f)
		}
	}
}

// BenchASCheckHitSlow measures the full page-table Check the TLB short-cuts.
func BenchASCheckHitSlow(b *testing.B) {
	_, _, as := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fault := as.Check(dataBase+8, mpk.AccessRead, mpk.AllowAllValue); fault != nil {
			b.Fatal(fault)
		}
	}
}

// BenchReadBytes4K measures a page-sized bulk copy out of uProcess memory
// (the syscall-layer buffer path): one permission check per page touched,
// into a reused buffer — the non-faulting path must not allocate, and
// cmd/bench gates allocs/op at zero.
func BenchReadBytes4K(b *testing.B) {
	_, _, as := env(b)
	buf := make([]byte, mem.PageSize)
	b.SetBytes(mem.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fault := as.ReadBytesInto(dataBase, buf, mpk.AllowAllValue); fault != nil {
			b.Fatal(fault)
		}
	}
}

// BenchReadBytes4KSlow is the pre-optimization reference: one full Check per
// byte, exactly what ReadBytes did before page-run batching.
func BenchReadBytes4KSlow(b *testing.B) {
	_, _, as := env(b)
	b.SetBytes(mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]byte, mem.PageSize)
		for j := range out {
			v, fault := as.Read(dataBase+mem.Addr(j), 1, mpk.AllowAllValue)
			if fault != nil {
				b.Fatal(fault)
			}
			out[j] = byte(v)
		}
	}
}

// MachineCores sizes the whole-machine IPS benchmark; cmd/bench uses it
// to turn ns/op into instructions per wall-second.
const MachineCores = 8

// BenchMachineIPS measures whole-machine simulated instruction
// throughput: MachineCores cores share one text+data address space (each
// with a private stack page) and each steps b.N instructions of the
// standard inner-loop mix, so one op is one instruction on every core.
// Whole-machine IPS is MachineCores × 1e9 / (ns/op) — the figure of
// merit for "how much simulated machine one wall-second buys", tracked
// as a soft regression gate in BENCH_host.json.
func BenchMachineIPS(b *testing.B) {
	m := cpu.NewMachine(MachineCores, cpu.Default())
	as := mem.NewAddressSpace(m.Phys)
	if err := as.MapRange(textBase, mem.PageSize, mem.PermXOnly, 0); err != nil {
		b.Fatal(err)
	}
	if err := as.MapRange(dataBase, 4*mem.PageSize, mem.PermRW, 0); err != nil {
		b.Fatal(err)
	}
	if err := as.MapRange(stackBase, MachineCores*mem.PageSize, mem.PermRW, 0); err != nil {
		b.Fatal(err)
	}
	stepProgram(b, m, as)
	for i := 0; i < MachineCores; i++ {
		c := m.Core(i)
		c.AS = as
		c.PKRU = mpk.AllowAllValue
		c.PC = textBase
		c.Regs[cpu.RSP] = cpu.Word(stackBase) + cpu.Word((i+1)*mem.PageSize)
		c.Run(64) // warm the AS's superblock store and decoded-fetch cache, and each core's TLB
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < MachineCores; i++ {
		m.Core(i).Run(b.N)
	}
	b.StopTimer()
	for i := 0; i < MachineCores; i++ {
		if f := m.Core(i).Fault; f != nil {
			b.Fatalf("core %d: %v", i, f)
		}
	}
}

// The BenchCoreMigrate layout: migratePrograms page-aligned text pages,
// one per program copy, and a stack page for each.
const (
	migrateText     = mem.Addr(0x100000)
	migrateStack    = mem.Addr(0x200000)
	migratePrograms = 64
	migrateQuantum  = 40 // four trips around the ten-instruction loop
)

// BenchCoreMigrate measures ns per simulated instruction while programs
// move across a machine's cores, as a domain's uProcesses do: MachineCores
// cores share one address space holding migratePrograms page-aligned
// copies of a short compute-then-call loop, each with its own stack.
// Every quantum a core switches to the next program in rotation, and each
// lap over the programs moves every program one core further on. It also
// reports superblock fills per 1,000 blocks run ("fills/kblock"): the
// programs' blocks outnumber what one core's share of a store would keep.
func BenchCoreMigrate(b *testing.B) {
	m := cpu.NewMachine(MachineCores, cpu.Default())
	as := mem.NewAddressSpace(m.Phys)
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RBX, Imm: 1})
	a.Emit(cpu.MulImm{Dst: cpu.RBX, Imm: 3})
	a.Emit(cpu.Work{N: 20})
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 7})
	a.CallTo("fn")
	a.JmpTo("loop")
	a.Label("fn")
	a.Emit(cpu.AddImm{Dst: cpu.RSI, Imm: 1})
	a.Emit(cpu.Push{Src: cpu.RSI})
	a.Emit(cpu.Pop{Dst: cpu.RDI})
	a.Emit(cpu.Ret{})
	type context struct {
		regs [cpu.NumRegs]cpu.Word
		pc   mem.Addr
	}
	progs := make([]context, migratePrograms)
	for p := range progs {
		text := migrateText + mem.Addr(p)*mem.PageSize
		stack := migrateStack + mem.Addr(p)*mem.PageSize
		if err := as.MapRange(text, mem.PageSize, mem.PermXOnly, 0); err != nil {
			b.Fatal(err)
		}
		if err := as.MapRange(stack, mem.PageSize, mem.PermRW, 0); err != nil {
			b.Fatal(err)
		}
		prog, err := a.Assemble(text)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.InstallCode(as, text, prog); err != nil {
			b.Fatal(err)
		}
		progs[p].pc = text
		progs[p].regs[cpu.RSP] = cpu.Word(stack + mem.PageSize)
	}
	for i := 0; i < MachineCores; i++ {
		m.Core(i).AS, m.Core(i).PKRU = as, mpk.AllowAllValue
	}
	step := 0
	quantum := func() int {
		p := &progs[step%migratePrograms]
		c := m.Core((step + step/migratePrograms) % MachineCores)
		step++
		c.Regs, c.PC = p.regs, p.pc
		ran := c.Run(migrateQuantum)
		if c.Fault != nil {
			b.Fatalf("core %d: %v", c.ID, c.Fault)
		}
		p.regs, p.pc = c.Regs, c.PC
		return ran
	}
	blockStats := func() (fills, blocks uint64) {
		for i := 0; i < MachineCores; i++ {
			f, h, _ := m.Core(i).SuperblockStats()
			fills, blocks = fills+f, blocks+f+h
		}
		return fills, blocks
	}
	for step < MachineCores*migratePrograms { // every program on every core
		quantum()
	}
	fills, blocks := blockStats()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		done += quantum()
	}
	b.StopTimer()
	f, n := blockStats()
	b.ReportMetric(1000*float64(f-fills)/float64(n-blocks), "fills/kblock")
}

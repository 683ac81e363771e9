// Package hostbench holds the host-time benchmark bodies that cmd/bench
// gates and the `go test -bench` wrappers in the repository root share.
//
// The MMU bodies take a *testing.B; cmd/bench runs them through
// testing.Benchmark. Their Slow variants measure the same operation with
// the fast path off (per-byte walks, direct page-table Check), so a
// single process yields a machine-independent speedup ratio. The journey
// body runs a fixed number of paired iterations, which testing.Benchmark
// cannot do, so it is a plain function.
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
func BenchCoreStep(b *testing.B) {
	m, c, as := env(b)
	stepProgram(b, m, as)
	c.Run(64) // warm the superblock store, icache, and TLB
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(b.N)
	if c.Fault != nil {
		b.Fatal(c.Fault)
	}
}

// BenchCoreStepNoSB is the same workload with superblock fusion disabled
// but the TLB/icache fast path on — the per-instruction Step loop the
// superblock gate is measured against (PR 5's 16 ns/instr baseline).
func BenchCoreStepNoSB(b *testing.B) {
	cpu.DisableSuperblocks = true
	defer func() { cpu.DisableSuperblocks = false }()
	BenchCoreStep(b)
}

// BenchCoreStepSlow is the same workload with the fast path disabled — the
// pre-optimization per-access page-table walk (which also forgoes fusion).
func BenchCoreStepSlow(b *testing.B) {
	cpu.DisableFastPath = true
	defer func() { cpu.DisableFastPath = false }()
	BenchCoreStep(b)
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
		c.Run(64) // warm each core's superblock store, icache, and TLB
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

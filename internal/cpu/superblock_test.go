package cpu

import (
	"testing"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// TestSuperblocksInvisible runs the differential probe program (loads,
// stores, stack traffic, a WRPKRU, a loop) with superblock fusion enabled
// and disabled: registers and cycle counts must match exactly. Fusion is
// pure mechanism — the PerInstr mode exists so differentials like this one
// can prove it.
func TestSuperblocksInvisible(t *testing.T) {
	t.Parallel()
	fastRegs, fastCycles := runCollatz(t, Fused)
	slowRegs, slowCycles := runCollatz(t, PerInstr)
	if fastRegs != slowRegs {
		t.Fatalf("registers diverged: fused %v, per-instruction %v", fastRegs, slowRegs)
	}
	if fastCycles != slowCycles {
		t.Fatalf("cycles diverged: fused %d, per-instruction %d", fastCycles, slowCycles)
	}
}

// sbLoopEnv installs the standard five-instruction straight-line loop
// (store, load, add, push, pop, jmp) on a machine in mode and warms the
// superblock store.
func sbLoopEnv(t *testing.T, mode ExecMode) (*Machine, *Core, *mem.AddressSpace) {
	t.Helper()
	m, c, as := buildEnv(t)
	m.SetExecMode(mode)
	a := NewAssembler()
	a.Emit(MovImm{RCX, 0x10000})
	a.Emit(MovImm{RBX, 27})
	a.Label("loop")
	a.Emit(Store{RBX, RCX, 0})
	a.Emit(Load{RDX, RCX, 0})
	a.Emit(AddImm{RBX, 3})
	a.Emit(Push{RBX})
	a.Emit(Pop{RDX})
	a.JmpTo("loop")
	prog, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	install(t, m, as, 0x1000, prog)
	c.Run(32)
	if c.Fault != nil {
		t.Fatal(c.Fault)
	}
	if fills, hits, _ := c.SuperblockStats(); mode == Fused && (fills == 0 || hits == 0) {
		t.Fatalf("warmup built no superblocks: fills=%d hits=%d", fills, hits)
	}
	return m, c, as
}

// TestSuperblockQuantumSplitEquivalence runs the same program in quantum
// slices of every awkward size — including 1, sizes that split a block
// mid-prefix, and sizes landing exactly on a terminator — and requires
// the step-count contract to hold: k calls of Run(q) retire exactly the
// same instructions, registers, PC, and cycles as the per-instruction
// loop stepping the same total.
func TestSuperblockQuantumSplitEquivalence(t *testing.T) {
	const total = 210
	type state struct {
		regs   [NumRegs]Word
		pc     mem.Addr
		cycles int64
		steps  int
	}
	runSliced := func(mode ExecMode, q int) state {
		_, c, _ := sbLoopEnv(t, mode) // identical warmup for every slicing
		steps := 0
		for steps < total {
			n := q
			if total-steps < n {
				n = total - steps
			}
			ran := c.Run(n)
			if ran != n {
				t.Fatalf("Run(%d) retired %d on a non-halting program", n, ran)
			}
			steps += ran
		}
		return state{c.Regs, c.PC, c.Cycles, steps}
	}
	want := runSliced(Fused, total)
	for _, q := range []int{1, 2, 3, 5, 6, 7, 11, 64} {
		if got := runSliced(Fused, q); got != want {
			t.Fatalf("quantum %d diverged: %+v, want %+v", q, got, want)
		}
	}
	// The per-instruction loop agrees with the fused one.
	if got := runSliced(PerInstr, total); got != want {
		t.Fatalf("per-instruction loop diverged: %+v, want %+v", got, want)
	}
}

// TestSuperblockInvalidatedByInstallCode overwrites a hot fused loop and
// checks the very next Run decodes the new code — the InstallCode
// generation bump must clear warm superblocks, not just single decodes.
func TestSuperblockInvalidatedByInstallCode(t *testing.T) {
	m, c, as := sbLoopEnv(t, Fused)
	install(t, m, as, 0x1000, []Instr{AddImm{RCX, 5}, Halt{}})
	c.PC = 0x1000
	c.Regs[RCX] = 0
	c.Run(10)
	if c.Regs[RCX] != 5 || !c.Halted {
		t.Fatalf("stale superblock survived InstallCode: rcx=%d halted=%v", c.Regs[RCX], c.Halted)
	}
}

// TestSuperblockInvalidatedByProtect drops exec permission on the page a
// warm superblock lives on: the next Run must fault on fetch — the
// fill-time exec validation is only good while the generation tags hold.
func TestSuperblockInvalidatedByProtect(t *testing.T) {
	_, c, as := sbLoopEnv(t, Fused)
	if err := as.Protect(0x1000, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	if c.Fault == nil || c.Fault.Kind != mem.FaultPerm || c.Fault.Op != mpk.AccessExec {
		t.Fatalf("fault = %v, want exec perm fault on the invalidated text page", c.Fault)
	}
}

// TestSuperblockInvalidatedByMap unmaps the data page a warm superblock
// stores to (a translation-mutating Unmap bumps the generation exactly
// like Map), then remaps it: the first Run must bail out mid-block with a
// precise not-mapped fault, and the remapped page must be picked up on
// retry.
func TestSuperblockInvalidatedByMap(t *testing.T) {
	var seen []mem.Fault
	_, c, as := sbLoopEnv(t, Fused)
	c.Hooks.OnFault = func(c *Core, f *mem.Fault) bool {
		seen = append(seen, *f)
		return false // fail-stop so the test can inspect the boundary
	}
	as.Unmap(0x10000, mem.PageSize)
	c.Run(20)
	if len(seen) != 1 || seen[0].Kind != mem.FaultNotMapped || seen[0].Addr != 0x10000 {
		t.Fatalf("faults = %v, want one not-mapped fault at 0x10000", seen)
	}
	// PC must sit on the faulting store (loop head), not the block start
	// or the terminator — the mid-block bailout contract.
	if c.PC != 0x1000+2*InstrSize {
		t.Fatalf("PC = %#x after mid-block fault, want the faulting store at %#x",
			uint64(c.PC), uint64(0x1000+2*InstrSize))
	}
	if err := as.MapRange(0x10000, mem.PageSize, mem.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	c.Halted, c.Fault = false, nil
	c.Run(20)
	if c.Fault != nil {
		t.Fatalf("remapped page still faults: %v", c.Fault)
	}
}

// TestSuperblockInvalidatedBySetPKey retags the data page under a warm
// superblock with a key the PKRU denies: the store µop must bail out with
// a precise PKU fault even though the block and TLB were hot. The re-tag
// invalidates neither: the TLB reads the new key through its cached PTE
// — see TestPKeyRetagKeepsSuperblocks.
func TestSuperblockInvalidatedBySetPKey(t *testing.T) {
	_, c, as := sbLoopEnv(t, Fused)
	if err := as.SetPKey(0x10000, mem.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	c.PKRU = mpk.AllowAllValue.WithAccess(3, false, false)
	c.Run(20)
	if c.Fault == nil || c.Fault.Kind != mem.FaultPKU || c.Fault.Addr != 0x10000 {
		t.Fatalf("fault = %v, want PKU fault at the retagged page", c.Fault)
	}
}

// TestSuperblockMidBlockFaultPrecise compares the complete fault-time
// core state (PC, cycles, registers, fault value) the OnFault hook
// observes between fused and per-instruction execution of a program that
// faults in the middle of a straight-line run — the bailout must restore
// the precise-interrupt illusion before anyone looks.
func TestSuperblockMidBlockFaultPrecise(t *testing.T) {
	type at struct {
		f      mem.Fault
		pc     mem.Addr
		cycles int64
		regs   [NumRegs]Word
	}
	probe := func(mode ExecMode) at {
		m, c, as := buildEnv(t)
		m.SetExecMode(mode)
		// Straight line: two good stores, then a store into an unmapped
		// page, then more straight-line code the bailout must not run.
		install(t, m, as, 0x1000, []Instr{
			MovImm{RCX, 0x10000},
			MovImm{RDX, 0x30000}, // unmapped
			MovImm{RBX, 7},
			Store{RBX, RCX, 0},
			Store{RBX, RCX, 8},
			Store{RBX, RDX, 0}, // faults
			AddImm{RBX, 100},
			Halt{},
		})
		var got at
		c.Hooks.OnFault = func(c *Core, f *mem.Fault) bool {
			got = at{*f, c.PC, c.Cycles, c.Regs}
			return false
		}
		c.Run(100)
		return got
	}
	fused, precise := probe(Fused), probe(PerInstr)
	if fused != precise {
		t.Fatalf("fault-time state diverged:\nfused:   %+v\nprecise: %+v", fused, precise)
	}
	if fused.f.Addr != 0x30000 || fused.pc != 0x1000+5*InstrSize {
		t.Fatalf("fault at %+v pc=%#x, want addr 0x30000 pc %#x",
			fused.f, uint64(fused.pc), uint64(0x1000+5*InstrSize))
	}
	if fused.regs[RBX] != 7 {
		t.Fatalf("rbx = %d at fault, want 7 (the post-fault AddImm must not run)", fused.regs[RBX])
	}
}

// TestSuperblockUintrBoundary posts a user interrupt between quanta of a
// fused loop and checks delivery state matches the per-instruction loop:
// deliverability is checked at block entry, and every instruction that
// could change it terminates a block.
func TestSuperblockUintrBoundary(t *testing.T) {
	run := func(mode ExecMode) ([NumRegs]Word, int64, mem.Addr) {
		m, c, as := buildEnv(t)
		m.SetExecMode(mode)
		a := NewAssembler()
		a.Label("main")
		a.Emit(AddImm{RBX, 1})
		a.Emit(AddImm{RSI, 2})
		a.Emit(AddImm{RDI, 3})
		a.JmpTo("main")
		a.Label("handler")
		a.Emit(Pop{R9})
		a.Emit(Add{RDX, R9})
		a.Emit(UiRet{})
		prog, err := a.Assemble(0x1000)
		if err != nil {
			t.Fatal(err)
		}
		install(t, m, as, 0x1000, prog)
		c.HandlerAddr = a.AddrOf("handler", 0x1000)
		c.Run(10)
		c.PostUserInterrupt(5)
		c.Run(50)
		if c.Fault != nil {
			t.Fatal(c.Fault)
		}
		return c.Regs, c.Cycles, c.PC
	}
	fRegs, fCycles, fPC := run(Fused)
	sRegs, sCycles, sPC := run(PerInstr)
	if fRegs != sRegs || fCycles != sCycles || fPC != sPC {
		t.Fatalf("uintr delivery diverged: fused (%v, %d, %#x), per-instruction (%v, %d, %#x)",
			fRegs, fCycles, uint64(fPC), sRegs, sCycles, uint64(sPC))
	}
	if sRegs[RDX] != 5 {
		t.Fatalf("handler tally = %d, want 5", sRegs[RDX])
	}
}

// TestPKeyRetagKeepsSuperblocks re-tags the data page a warm superblock
// loads from, between Runs, as virtual-key eviction and refill do. A
// re-tag bumps no generation, so the block must stay warm (no refill)
// while its loads and stores still see the new key through the TLB:
// denying the key faults at exactly the PC and cycle count of the
// per-instruction loop. Dropping exec from the text page bumps the
// generation and must still invalidate the block.
func TestPKeyRetagKeepsSuperblocks(t *testing.T) {
	type at struct {
		f      mem.Fault
		pc     mem.Addr
		cycles int64
	}
	probe := func(mode ExecMode) (at, *Core, *mem.AddressSpace) {
		_, c, as := sbLoopEnv(t, mode)
		c.PKRU = mpk.AllowAllValue.WithAccess(4, false, false)
		var got at
		c.Hooks.OnFault = func(c *Core, f *mem.Fault) bool {
			got = at{*f, c.PC, c.Cycles}
			return false
		}
		fills, _, _ := c.SuperblockStats()
		if err := as.SetPKey(0x10000, mem.PageSize, 3); err != nil { // still granted
			t.Fatal(err)
		}
		c.Run(18) // three whole loop trips: every Run starts at a warm block
		if c.Fault != nil {
			t.Fatalf("re-tag to a granted key faulted: %v", c.Fault)
		}
		if err := as.SetPKey(0x10000, mem.PageSize, 4); err != nil { // denied
			t.Fatal(err)
		}
		c.Run(18)
		if c.Fault == nil || c.Fault.Kind != mem.FaultPKU || c.Fault.Addr != 0x10000 {
			t.Fatalf("fault = %v, want PKU fault at the re-tagged page", c.Fault)
		}
		if after, _, _ := c.SuperblockStats(); after != fills {
			t.Fatalf("re-tags refilled superblocks: fills %d -> %d", fills, after)
		}
		return got, c, as
	}
	fused, c, as := probe(Fused)
	precise, _, _ := probe(PerInstr)
	if fused != precise {
		t.Fatalf("fault-time state diverged:\nfused:   %+v\nprecise: %+v", fused, precise)
	}

	// Exec removal on the text page still invalidates the warm block.
	fills, _, _ := c.SuperblockStats()
	if err := as.SetPKey(0x10000, mem.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x1000, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	c.Halted, c.Fault, c.PC = false, nil, 0x1000+2*InstrSize
	c.Run(10)
	if c.Fault == nil || c.Fault.Kind != mem.FaultPerm || c.Fault.Op != mpk.AccessExec {
		t.Fatalf("fault = %v, want exec perm fault after Protect", c.Fault)
	}
	if after, _, _ := c.SuperblockStats(); after != fills {
		t.Fatalf("unfetchable text built a block: fills %d -> %d", fills, after)
	}
}

// TestCodeIndexSpreadsPageAlignedText runs identical programs, each at its
// own page-aligned text base as SMAS installs uProcess text, round-robin
// on one core with a register and stack switch per turn. The page number
// is mixed into the superblock index, so after one warm round every
// program's block stays resident: later rounds refill nothing.
func TestCodeIndexSpreadsPageAlignedText(t *testing.T) {
	const (
		progs    = 12
		textBase = mem.Addr(0x10_0000)
		stacks   = mem.Addr(0x20_0000)
		quantum  = 8 // two trips around the four-instruction loop
	)
	m := NewMachine(1, Default())
	as := mem.NewAddressSpace(m.Phys)
	a := NewAssembler()
	a.Label("loop")
	a.Emit(AddImm{RBX, 1})
	a.Emit(Push{RBX})
	a.Emit(Pop{RDX})
	a.JmpTo("loop")
	type ctx struct {
		regs [NumRegs]Word
		pc   mem.Addr
	}
	saved := make([]ctx, progs)
	for i := range saved {
		base := textBase + mem.Addr(i)*mem.PageSize
		stack := stacks + mem.Addr(i)*mem.PageSize
		if err := as.MapRange(base, mem.PageSize, mem.PermXOnly, 0); err != nil {
			t.Fatal(err)
		}
		if err := as.MapRange(stack, mem.PageSize, mem.PermRW, 0); err != nil {
			t.Fatal(err)
		}
		prog, err := a.Assemble(base)
		if err != nil {
			t.Fatal(err)
		}
		install(t, m, as, base, prog)
		saved[i].pc = base
		saved[i].regs[RSP] = Word(stack + mem.PageSize)
	}
	c := m.Core(0)
	c.AS, c.PKRU = as, mpk.AllowAllValue
	round := func() {
		for i := range saved {
			c.Regs, c.PC = saved[i].regs, saved[i].pc
			if ran := c.Run(quantum); ran != quantum || c.Fault != nil {
				t.Fatalf("program %d retired %d of %d (fault %v)", i, ran, quantum, c.Fault)
			}
			saved[i].regs, saved[i].pc = c.Regs, c.PC
		}
	}
	round()
	warm, _, _ := c.SuperblockStats()
	if warm != progs {
		t.Fatalf("warm round filled %d blocks, want one per program (%d)", warm, progs)
	}
	for r := 0; r < 4; r++ {
		round()
	}
	if fills, _, _ := c.SuperblockStats(); fills != warm {
		t.Fatalf("identical page-aligned programs collide: %d fills after the warm round", fills-warm)
	}
}

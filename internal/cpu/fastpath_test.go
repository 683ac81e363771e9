package cpu

import (
	"testing"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// TestLowestVectorWins posts several vectors at once and checks delivery
// order: the lowest-numbered pending vector must be taken first, then the
// next, exactly as the linear scan did before TrailingZeros64.
func TestLowestVectorWins(t *testing.T) {
	m, c, as := buildEnv(t)
	a := NewAssembler()
	a.Label("main")
	a.Emit(AddImm{RBX, 1})
	a.JmpTo("main")
	// Handler: pop the vector into R9, record it in RDX (shifted tally),
	// and return.
	a.Label("handler")
	a.Emit(Pop{R9})
	a.Emit(MulImm{RDX, 64})
	a.Emit(Add{RDX, R9})
	a.Emit(UiRet{})
	prog, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	install(t, m, as, 0x1000, prog)
	c.HandlerAddr = a.AddrOf("handler", 0x1000)

	c.PostUserInterrupt(41)
	c.PostUserInterrupt(7)
	c.PostUserInterrupt(63)
	c.Run(30) // three delivery+handler+uiret rounds and some main loop
	// RDX accumulated vectors base-64 in delivery order: 7, then 41, 63.
	want := Word(7*64*64 + 41*64 + 63)
	if c.Regs[RDX] != want {
		t.Fatalf("delivery order tally = %#x, want %#x (7,41,63)", c.Regs[RDX], want)
	}
	if c.PendingVectors != 0 {
		t.Fatalf("pending = %#x after all deliveries", c.PendingVectors)
	}
}

// runCollatz executes a short program with loads, stores, calls, and a
// WRPKRU protection switch in mode, returning final registers and cycles —
// the differential probe for fast-path invisibility.
func runCollatz(t *testing.T, mode ExecMode) ([NumRegs]Word, int64) {
	t.Helper()
	m, c, as := buildEnv(t)
	m.SetExecMode(mode)
	a := NewAssembler()
	a.Emit(MovImm{RAX, uint64(mpk.AllowAllValue)})
	a.Emit(WrPkru{})
	a.Emit(MovImm{RCX, 0x10000})
	a.Emit(MovImm{RBX, 27})
	a.Emit(MovImm{R8, 200})
	a.Label("loop")
	a.Emit(Store{RBX, RCX, 0})
	a.Emit(Load{RBX, RCX, 0})
	a.Emit(AddImm{RBX, 3})
	a.Emit(Push{RBX})
	a.Emit(Pop{RDX})
	a.LoopTo(R8, "loop")
	a.Emit(Halt{})
	prog, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	install(t, m, as, 0x1000, prog)
	c.Run(10_000)
	if c.Fault != nil {
		t.Fatal(c.Fault)
	}
	return c.Regs, c.Cycles
}

// TestFastPathInvisible runs the same program with the TLB/icache enabled
// (PerInstr) and disabled (Slow): registers and cycle counts must match
// exactly.
func TestFastPathInvisible(t *testing.T) {
	t.Parallel()
	fastRegs, fastCycles := runCollatz(t, PerInstr)
	slowRegs, slowCycles := runCollatz(t, Slow)
	if fastRegs != slowRegs {
		t.Fatalf("registers diverged: fast %v, slow %v", fastRegs, slowRegs)
	}
	if fastCycles != slowCycles {
		t.Fatalf("cycles diverged: fast %d, slow %d", fastCycles, slowCycles)
	}
}

// TestICacheInvalidatedByInstallCode overwrites already-executed code and
// checks the next fetch decodes the new instruction, not the cached one.
func TestICacheInvalidatedByInstallCode(t *testing.T) {
	m, c, as := buildEnv(t)
	install(t, m, as, 0x1000, []Instr{AddImm{RBX, 1}, Jmp{Target: 0x1000}})
	c.Run(10) // warm the icache on the two-instruction loop
	if c.Regs[RBX] == 0 {
		t.Fatal("loop did not run")
	}
	install(t, m, as, 0x1000, []Instr{AddImm{RCX, 5}, Halt{}})
	c.PC = 0x1000
	c.Run(10)
	if c.Regs[RCX] != 5 || !c.Halted {
		t.Fatalf("stale decode survived InstallCode: rcx=%d halted=%v", c.Regs[RCX], c.Halted)
	}
}

// TestICacheInvalidatedByProtect drops exec permission on a hot text page
// and checks the very next fetch faults despite the warm icache.
func TestICacheInvalidatedByProtect(t *testing.T) {
	m, c, as := buildEnv(t)
	install(t, m, as, 0x1000, []Instr{AddImm{RBX, 1}, Jmp{Target: 0x1000}})
	c.Run(10)
	if err := as.Protect(0x1000, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	if c.Fault == nil || c.Fault.Kind != mem.FaultPerm || c.Fault.Op != mpk.AccessExec {
		t.Fatalf("fault = %v, want exec perm fault", c.Fault)
	}
}

// TestTLBAcrossAddressSpaceSwitch runs two address spaces mapping the same
// virtual page to different frames on one core, alternating between them —
// the switch must flush cached translations.
func TestTLBAcrossAddressSpaceSwitch(t *testing.T) {
	m := NewMachine(1, Default())
	mk := func(tag Word) *mem.AddressSpace {
		as := mem.NewAddressSpace(m.Phys)
		if err := as.MapRange(0x1000, mem.PageSize, mem.PermXOnly, 0); err != nil {
			t.Fatal(err)
		}
		if err := as.MapRange(0x10000, mem.PageSize, mem.PermRW, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.InstallCode(as, 0x1000, []Instr{
			MovImm{RCX, 0x10000}, MovImm{RAX, tag}, Store{RAX, RCX, 0}, Load{RDX, RCX, 0}, Halt{},
		}); err != nil {
			t.Fatal(err)
		}
		return as
	}
	asA, asB := mk(0xAAAA), mk(0xBBBB)
	c := m.Core(0)
	c.PKRU = mpk.AllowAllValue
	for i := 0; i < 4; i++ {
		as, want := asA, Word(0xAAAA)
		if i%2 == 1 {
			as, want = asB, 0xBBBB
		}
		c.AS = as
		c.PC = 0x1000
		c.Halted = false
		c.Run(10)
		if c.Fault != nil {
			t.Fatal(c.Fault)
		}
		if c.Regs[RDX] != want {
			t.Fatalf("round %d: rdx=%#x, want %#x", i, c.Regs[RDX], want)
		}
		// The other space's frame must be untouched by this run.
		other := asB
		if as == asB {
			other = asA
		}
		pte, ok := other.Lookup(0x10000)
		if !ok {
			t.Fatal("other AS lost its data page")
		}
		if got := pte.Frame.Data[0]; i > 0 && got == byte(want) {
			t.Fatalf("round %d: write leaked into the other address space", i)
		}
	}
}

// TestSetExecModeAfterRunPanics checks that a machine takes its mode
// before it runs: switching once any core has run panics.
func TestSetExecModeAfterRunPanics(t *testing.T) {
	t.Parallel()
	m, c, _ := buildEnv(t)
	m.SetExecMode(Slow)
	c.Run(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetExecMode after a core ran did not panic")
		}
	}()
	m.SetExecMode(Fused)
}

package cpu

import (
	"testing"

	"vessel/internal/mem"
)

// TestFetchAtBounds: FetchAt finds only installed instructions — not past
// the end of a frame's program, not at an unaligned address inside it,
// and not on a mapped frame that holds no code.
func TestFetchAtBounds(t *testing.T) {
	m, _, as := buildEnv(t)
	prog := []Instr{MovImm{RAX, 1}, MovImm{RBX, 2}, Halt{}}
	install(t, m, as, 0x1000, prog)
	for i, want := range prog {
		if got, ok := m.FetchAt(as, mem.Addr(0x1000+i*InstrSize)); !ok || got != want {
			t.Fatalf("FetchAt slot %d = %v, %v; want %v", i, got, ok, want)
		}
	}
	for _, a := range []mem.Addr{
		0x1000 + 3*InstrSize, // just past the program
		0x1ffc,               // last slot of the text page
		0x1002,               // unaligned, inside the program
		0x10000,              // mapped data page, no code
		0x20000,              // mapped stack page, no code
		0x5000,               // unmapped
	} {
		if got, ok := m.FetchAt(as, a); ok || got != nil {
			t.Fatalf("FetchAt(%#x) = %v, %v; want nothing", uint64(a), got, ok)
		}
	}
}

// TestSharedTextFetchesSameInstr: code is stored by frame, so text shared
// into a second address space fetches the very same instructions.
func TestSharedTextFetchesSameInstr(t *testing.T) {
	m, _, as := buildEnv(t)
	install(t, m, as, 0x1000, []Instr{MovImm{RAX, 7}, Call{Target: 0x1000}, Halt{}})
	as2 := mem.NewAddressSpace(m.Phys)
	if err := as2.ShareRange(as, 0x1000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for a := mem.Addr(0x1000); a < 0x1000+3*InstrSize; a += InstrSize {
		i1, ok1 := m.FetchAt(as, a)
		i2, ok2 := m.FetchAt(as2, a)
		if !ok1 || !ok2 || i1 != i2 {
			t.Fatalf("at %#x: %v, %v vs %v, %v", uint64(a), i1, ok1, i2, ok2)
		}
	}
}

// TestReinstallOverwritesCode: installing over a frame replaces the
// instructions it covers, keeps the ones past its end, and bumps the code
// generation so decoded-fetch caches drop the old ones.
func TestReinstallOverwritesCode(t *testing.T) {
	m, c, as := buildEnv(t)
	install(t, m, as, 0x1000, []Instr{MovImm{RAX, 1}, MovImm{RBX, 1}, Halt{}})
	c.Run(10)
	if c.Regs[RAX] != 1 {
		t.Fatalf("first program: rax=%d", c.Regs[RAX])
	}
	gen := m.codeGen
	install(t, m, as, 0x1000, []Instr{MovImm{RAX, 2}})
	if m.codeGen != gen+1 {
		t.Fatalf("codeGen %d, want %d", m.codeGen, gen+1)
	}
	if got, _ := m.FetchAt(as, 0x1000+2*InstrSize); got != (Halt{}) {
		t.Fatalf("slot past the new program = %v, want the old Halt", got)
	}
	c.Halted, c.PC = false, 0x1000
	c.Run(10)
	if c.Regs[RAX] != 2 || c.Regs[RBX] != 1 || !c.Halted {
		t.Fatalf("after reinstall: rax=%d rbx=%d halted=%v; want 2, 1, true", c.Regs[RAX], c.Regs[RBX], c.Halted)
	}
}

package cpu

import (
	"fmt"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// Word is a simulated machine word.
type Word = uint64

// Reg names a general-purpose register of the simulated core.
type Reg uint8

// The register file. RSP is the stack pointer; the call gate swaps it when
// entering the runtime (§4.2, Listing 1 lines 5–6).
const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	NumRegs
)

func (r Reg) String() string {
	names := [...]string{"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8", "r9"}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// InstrSize is the (uniform, simplified) encoded size of every instruction.
const InstrSize = 4

// Instr is one simulated instruction. Exec may read and write core state,
// perform checked memory accesses, and redirect control flow via
// Core.setPC. A non-nil return fault halts the core (unless a fault hook
// intervenes, as the simulated kernel's signal path does).
type Instr interface {
	Exec(c *Core) *mem.Fault
	Cycles(m *CostModel) int64
	String() string
}

// ---- data movement ----

// MovImm loads an immediate into a register.
type MovImm struct {
	Dst Reg
	Imm Word
}

func (i MovImm) Exec(c *Core) *mem.Fault   { c.Regs[i.Dst] = i.Imm; return nil }
func (i MovImm) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i MovImm) String() string            { return fmt.Sprintf("mov %s, %#x", i.Dst, i.Imm) }

// MovReg copies Src into Dst.
type MovReg struct{ Dst, Src Reg }

func (i MovReg) Exec(c *Core) *mem.Fault   { c.Regs[i.Dst] = c.Regs[i.Src]; return nil }
func (i MovReg) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i MovReg) String() string            { return fmt.Sprintf("mov %s, %s", i.Dst, i.Src) }

// Load reads a 64-bit word at [Base+Off] into Dst, with the full PTE∧PKRU
// check.
type Load struct {
	Dst  Reg
	Base Reg
	Off  int64
}

func (i Load) Exec(c *Core) *mem.Fault {
	addr := mem.Addr(int64(c.Regs[i.Base]) + i.Off)
	v, fault := c.read(addr, 8)
	if fault != nil {
		return fault
	}
	c.Regs[i.Dst] = v
	return nil
}
func (i Load) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i Load) String() string            { return fmt.Sprintf("mov %s, [%s%+d]", i.Dst, i.Base, i.Off) }

// Store writes Src to [Base+Off].
type Store struct {
	Src  Reg
	Base Reg
	Off  int64
}

func (i Store) Exec(c *Core) *mem.Fault {
	addr := mem.Addr(int64(c.Regs[i.Base]) + i.Off)
	return c.write(addr, 8, c.Regs[i.Src])
}
func (i Store) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i Store) String() string            { return fmt.Sprintf("mov [%s%+d], %s", i.Base, i.Off, i.Src) }

// LoadAbs reads a 64-bit word at a fixed address into Dst.
type LoadAbs struct {
	Dst  Reg
	Addr mem.Addr
}

func (i LoadAbs) Exec(c *Core) *mem.Fault {
	v, fault := c.read(i.Addr, 8)
	if fault != nil {
		return fault
	}
	c.Regs[i.Dst] = v
	return nil
}
func (i LoadAbs) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i LoadAbs) String() string            { return fmt.Sprintf("mov %s, [%#x]", i.Dst, uint64(i.Addr)) }

// StoreAbs writes Src to a fixed address.
type StoreAbs struct {
	Src  Reg
	Addr mem.Addr
}

func (i StoreAbs) Exec(c *Core) *mem.Fault {
	return c.write(i.Addr, 8, c.Regs[i.Src])
}
func (i StoreAbs) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i StoreAbs) String() string            { return fmt.Sprintf("mov [%#x], %s", uint64(i.Addr), i.Src) }

// ---- arithmetic ----

// Add computes Dst += Src.
type Add struct{ Dst, Src Reg }

func (i Add) Exec(c *Core) *mem.Fault   { c.Regs[i.Dst] += c.Regs[i.Src]; return nil }
func (i Add) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i Add) String() string            { return fmt.Sprintf("add %s, %s", i.Dst, i.Src) }

// AddImm computes Dst += Imm (Imm may be negative).
type AddImm struct {
	Dst Reg
	Imm int64
}

func (i AddImm) Exec(c *Core) *mem.Fault {
	c.Regs[i.Dst] = Word(int64(c.Regs[i.Dst]) + i.Imm)
	return nil
}
func (i AddImm) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i AddImm) String() string            { return fmt.Sprintf("add %s, %d", i.Dst, i.Imm) }

// MulImm computes Dst *= Imm.
type MulImm struct {
	Dst Reg
	Imm int64
}

func (i MulImm) Exec(c *Core) *mem.Fault {
	c.Regs[i.Dst] = Word(int64(c.Regs[i.Dst]) * i.Imm)
	return nil
}
func (i MulImm) Cycles(m *CostModel) int64 { return 3 * m.ALUCycles }
func (i MulImm) String() string            { return fmt.Sprintf("imul %s, %d", i.Dst, i.Imm) }

// ---- control flow ----

// Jmp is an unconditional direct jump.
type Jmp struct{ Target mem.Addr }

func (i Jmp) Exec(c *Core) *mem.Fault   { c.setPC(i.Target); return nil }
func (i Jmp) Cycles(m *CostModel) int64 { return m.JmpCycles }
func (i Jmp) String() string            { return fmt.Sprintf("jmp %#x", uint64(i.Target)) }

// JmpReg is an indirect jump through a register — the control-flow-hijack
// primitive the call gate must survive (§4.2).
type JmpReg struct{ Reg Reg }

func (i JmpReg) Exec(c *Core) *mem.Fault   { c.setPC(mem.Addr(c.Regs[i.Reg])); return nil }
func (i JmpReg) Cycles(m *CostModel) int64 { return m.JmpCycles }
func (i JmpReg) String() string            { return fmt.Sprintf("jmp %s", i.Reg) }

// Jne jumps to Target when A != B.
type Jne struct {
	A, B   Reg
	Target mem.Addr
}

func (i Jne) Exec(c *Core) *mem.Fault {
	if c.Regs[i.A] != c.Regs[i.B] {
		c.setPC(i.Target)
	}
	return nil
}
func (i Jne) Cycles(m *CostModel) int64 { return m.JmpCycles }
func (i Jne) String() string            { return fmt.Sprintf("jne %s, %s, %#x", i.A, i.B, uint64(i.Target)) }

// Jeq jumps to Target when A == B.
type Jeq struct {
	A, B   Reg
	Target mem.Addr
}

func (i Jeq) Exec(c *Core) *mem.Fault {
	if c.Regs[i.A] == c.Regs[i.B] {
		c.setPC(i.Target)
	}
	return nil
}
func (i Jeq) Cycles(m *CostModel) int64 { return m.JmpCycles }
func (i Jeq) String() string            { return fmt.Sprintf("jeq %s, %s, %#x", i.A, i.B, uint64(i.Target)) }

// JnzDec decrements Dst and jumps while it remains non-zero (loop
// primitive).
type JnzDec struct {
	Dst    Reg
	Target mem.Addr
}

func (i JnzDec) Exec(c *Core) *mem.Fault {
	c.Regs[i.Dst]--
	if c.Regs[i.Dst] != 0 {
		c.setPC(i.Target)
	}
	return nil
}
func (i JnzDec) Cycles(m *CostModel) int64 { return m.ALUCycles + m.JmpCycles }
func (i JnzDec) String() string            { return fmt.Sprintf("dec-jnz %s, %#x", i.Dst, uint64(i.Target)) }

// Call pushes the return address and jumps to Target.
type Call struct{ Target mem.Addr }

func (i Call) Exec(c *Core) *mem.Fault {
	if fault := c.push(Word(c.nextPC)); fault != nil {
		return fault
	}
	c.setPC(i.Target)
	return nil
}
func (i Call) Cycles(m *CostModel) int64 { return m.CallCycles }
func (i Call) String() string            { return fmt.Sprintf("call %#x", uint64(i.Target)) }

// CallReg is an indirect call through a register.
type CallReg struct{ Reg Reg }

func (i CallReg) Exec(c *Core) *mem.Fault {
	if fault := c.push(Word(c.nextPC)); fault != nil {
		return fault
	}
	c.setPC(mem.Addr(c.Regs[i.Reg]))
	return nil
}
func (i CallReg) Cycles(m *CostModel) int64 { return m.CallCycles }
func (i CallReg) String() string            { return fmt.Sprintf("call %s", i.Reg) }

// CallMem loads a function pointer from memory and calls through it — the
// PLT-style indirection (§4.2's second attack) and, when the pointer lives
// in the read-only message-pipe vector, the safe direct transfer VESSEL
// uses instead.
type CallMem struct{ Addr mem.Addr }

func (i CallMem) Exec(c *Core) *mem.Fault {
	target, fault := c.read(i.Addr, 8)
	if fault != nil {
		return fault
	}
	if fault := c.push(Word(c.nextPC)); fault != nil {
		return fault
	}
	c.setPC(mem.Addr(target))
	return nil
}
func (i CallMem) Cycles(m *CostModel) int64 { return m.CallCycles + m.MemCycles }
func (i CallMem) String() string            { return fmt.Sprintf("call [%#x]", uint64(i.Addr)) }

// Ret pops the return address and jumps to it.
type Ret struct{}

func (i Ret) Exec(c *Core) *mem.Fault {
	v, fault := c.pop()
	if fault != nil {
		return fault
	}
	c.setPC(mem.Addr(v))
	return nil
}
func (i Ret) Cycles(m *CostModel) int64 { return m.CallCycles }
func (i Ret) String() string            { return "ret" }

// Push stores a register on the stack.
type Push struct{ Src Reg }

func (i Push) Exec(c *Core) *mem.Fault   { return c.push(c.Regs[i.Src]) }
func (i Push) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i Push) String() string            { return fmt.Sprintf("push %s", i.Src) }

// Pop loads a register from the stack.
type Pop struct{ Dst Reg }

func (i Pop) Exec(c *Core) *mem.Fault {
	v, fault := c.pop()
	if fault != nil {
		return fault
	}
	c.Regs[i.Dst] = v
	return nil
}
func (i Pop) Cycles(m *CostModel) int64 { return m.MemCycles }
func (i Pop) String() string            { return fmt.Sprintf("pop %s", i.Dst) }

// ---- privileged-state instructions ----

// WrPkru writes RAX's low 32 bits into PKRU. It is unprivileged — exactly
// why the loader must reject it outside the call gate (§5.2.1).
type WrPkru struct{}

func (i WrPkru) Exec(c *Core) *mem.Fault {
	prev := c.PKRU
	c.PKRU = mpk.PKRU(uint32(c.Regs[RAX]))
	if c.Hooks.OnWrPkru != nil {
		c.Hooks.OnWrPkru(c, prev)
	}
	return nil
}
func (i WrPkru) Cycles(m *CostModel) int64 { return m.WrPkruCycles }
func (i WrPkru) String() string            { return "wrpkru" }

// RdPkru reads PKRU into RAX.
type RdPkru struct{}

func (i RdPkru) Exec(c *Core) *mem.Fault {
	c.Regs[RAX] = Word(uint32(c.PKRU))
	return nil
}
func (i RdPkru) Cycles(m *CostModel) int64 { return m.RdPkruCycles }
func (i RdPkru) String() string            { return "rdpkru" }

// CpuID loads the core's ID into Dst (stand-in for reading the CPU number,
// which the gate uses to index CPUID_TO_TASK_MAP).
type CpuID struct{ Dst Reg }

func (i CpuID) Exec(c *Core) *mem.Fault   { c.Regs[i.Dst] = Word(c.ID); return nil }
func (i CpuID) Cycles(m *CostModel) int64 { return 2 * m.ALUCycles }
func (i CpuID) String() string            { return fmt.Sprintf("cpuid %s", i.Dst) }

// SendUIPI posts a user interrupt through the core's UITT at the index in
// IdxReg (§2.2).
type SendUIPI struct{ IdxReg Reg }

func (i SendUIPI) Exec(c *Core) *mem.Fault {
	if c.Hooks.OnSendUIPI != nil {
		c.Hooks.OnSendUIPI(c, c.Regs[i.IdxReg])
	}
	return nil
}
func (i SendUIPI) Cycles(m *CostModel) int64 {
	return int64(float64(m.UintrSend) * m.ClockGHz)
}
func (i SendUIPI) String() string { return fmt.Sprintf("senduipi %s", i.IdxReg) }

// UiRet returns from a user-interrupt handler: pops the saved PC pushed by
// delivery and re-enables user interrupts.
type UiRet struct{}

func (i UiRet) Exec(c *Core) *mem.Fault {
	v, fault := c.pop()
	if fault != nil {
		return fault
	}
	c.setPC(mem.Addr(v))
	c.UIF = true
	return nil
}
func (i UiRet) Cycles(m *CostModel) int64 {
	return int64(float64(m.UintrUiret) * m.ClockGHz)
}
func (i UiRet) String() string { return "uiret" }

// Stui sets the user-interrupt flag, enabling delivery (the UINTR ISA's
// STUI).
type Stui struct{}

func (i Stui) Exec(c *Core) *mem.Fault   { c.UIF = true; return nil }
func (i Stui) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i Stui) String() string            { return "stui" }

// Clui clears the user-interrupt flag, masking delivery (the UINTR ISA's
// CLUI). The runtime uses this discipline around privileged sections; in
// the model the gate's PKRU transition provides the equivalent masking
// (see Core.PrivilegedPKRU), but the instructions exist for programs that
// manage UIF explicitly.
type Clui struct{}

func (i Clui) Exec(c *Core) *mem.Fault   { c.UIF = false; return nil }
func (i Clui) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i Clui) String() string            { return "clui" }

// Halt stops the core.
type Halt struct{}

func (i Halt) Exec(c *Core) *mem.Fault   { c.Halted = true; return nil }
func (i Halt) Cycles(m *CostModel) int64 { return m.ALUCycles }
func (i Halt) String() string            { return "hlt" }

// Work burns a fixed number of cycles — the stand-in for application
// compute between the interesting instructions.
type Work struct{ N int64 }

func (i Work) Exec(c *Core) *mem.Fault   { return nil }
func (i Work) Cycles(m *CostModel) int64 { return i.N }
func (i Work) String() string            { return fmt.Sprintf("work %d", i.N) }

// Hook invokes an arbitrary Go callback — the escape hatch that lets
// higher layers (runtime services, test probes) observe execution without
// growing the ISA. The callback may return a fault to inject one.
type Hook struct {
	Name string
	Fn   func(c *Core) *mem.Fault
	Cost int64 // cycles
}

func (i Hook) Exec(c *Core) *mem.Fault {
	if i.Fn == nil {
		return nil
	}
	return i.Fn(c)
}
func (i Hook) Cycles(m *CostModel) int64 {
	if i.Cost > 0 {
		return i.Cost
	}
	return m.ALUCycles
}
func (i Hook) String() string { return "hook " + i.Name }

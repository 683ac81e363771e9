package cpu

import (
	"fmt"
	"math/bits"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// ExecMode selects how a machine's cores execute. The modes differ only in
// host speed: each retires the same instructions with the same state,
// faults, cycles and interrupt delivery points.
type ExecMode uint8

const (
	// Fused runs straight-line code as superblocks (superblock.go) over
	// the per-core software TLB and decoded-fetch cache. The default.
	Fused ExecMode = iota
	// PerInstr steps one instruction at a time through the TLB and
	// decoded-fetch cache, fusing nothing.
	PerInstr
	// Slow routes every fetch and data access through the uncached
	// page-table walk, fusing nothing.
	Slow
)

// Hooks let higher layers observe and extend core execution.
type Hooks struct {
	// OnSendUIPI is invoked by the SENDUIPI instruction with the UITT
	// index; the uintr package wires this to its routing tables.
	OnSendUIPI func(c *Core, index Word)
	// OnFault is consulted before a memory fault halts the core. It
	// plays the role of the kernel's SIGSEGV path: returning true means
	// the fault was handled (e.g. redirected to a signal handler by
	// updating PC) and execution continues.
	OnFault func(c *Core, f *mem.Fault) bool
	// OnWrPkru fires after each WRPKRU retires, with the value the
	// register held before the write — the per-call protection-switch
	// probe (libmpk measures exactly this path at 11–260 cycles).
	OnWrPkru func(c *Core, prev mpk.PKRU)
}

// Core is a simulated CPU core: register file, PKRU, program counter,
// user-interrupt state, and a cycle counter. A core executes instruction
// streams installed in a Machine through an AddressSpace, applying the
// PTE∧PKRU check on every data access and the execute-permission check on
// every fetch.
type Core struct {
	ID    int
	Costs *CostModel
	AS    *mem.AddressSpace
	PKRU  mpk.PKRU
	Regs  [NumRegs]Word
	PC    mem.Addr

	// UIF is the user-interrupt flag; pending vectors are only delivered
	// while it is set (as after UIRET or STUI).
	UIF bool
	// PendingVectors is the posted-interrupt bitmap (the UPID's PIR in
	// hardware). Bits are set by uintr posting and cleared on delivery.
	PendingVectors uint64
	// HandlerAddr is the registered user-interrupt handler entry point.
	HandlerAddr mem.Addr
	// PrivilegedPKRU, when non-nil, suppresses user-interrupt delivery
	// while PKRU equals it — the runtime's CLUI/STUI discipline: a core
	// executing in the userspace privileged mode must not be re-entered
	// by its own scheduling interrupts until it drops back to an
	// application PKRU (the stage-3 WRPKRU of the call gate).
	PrivilegedPKRU *mpk.PKRU

	Cycles int64
	Halted bool
	// Stalled wedges the core: Step refuses to execute and the cycle
	// counter freezes, but no fault is recorded — the model of a core that
	// stops retiring instructions (a hardware wedge, a lost clock) rather
	// than one that crashed. Failure detectors see it as a heartbeat that
	// stops without an error state. Set by the fault injector's CoreStall.
	Stalled bool
	Fault   *mem.Fault
	Hooks   Hooks

	machine *Machine
	nextPC  mem.Addr
	jumped  bool

	// mode is the machine's ExecMode, copied here by SetExecMode; ran is
	// set by the first Run or Step, after which the mode is fixed.
	mode ExecMode
	ran  bool

	// sb is the superblock store (see superblock.go), lazily allocated
	// on the first fused Run and invalidated alongside the icache by
	// syncCaches.
	sb *sbCache

	// tlb is the core's software translation cache; see mem.TLB for the
	// generation-based coherence scheme that keeps it invisible.
	tlb mem.TLB
	// faultv is the scratch the TLB access helpers fill on failure, so
	// the non-faulting path never allocates a *mem.Fault. The pointer
	// handed to raise aliases this scratch; fault consumers (the OnFault
	// hook, readers of c.Fault) must not retain it across further
	// execution of this core, which none do — a contained fault is acted
	// on synchronously and an uncontained one halts the core.
	faultv mem.Fault

	// The decoded-fetch cache: a direct-mapped map from PC to the decoded
	// instruction, tagged with the address space, its generation, and the
	// machine's code generation. A hit skips both the page-table walk and
	// the code-store lookup in fetch. Exec permission was verified at fill
	// time and cannot have changed while the generation tags match. A
	// protection-key re-tag (a virtual-key eviction or refill) bumps no
	// generation, and PKRU is never consulted for fetches, so a re-tag
	// cannot change a fetch verdict and leaves the cache warm — as it
	// leaves the TLB, which reads keys through its cached PTE pointers.
	icache    [icacheSize]icacheEntry
	icAS      *mem.AddressSpace
	icGen     uint64
	icCodeGen uint64
}

// icacheSize is the number of direct-mapped decoded-fetch entries, indexed
// by codeIndex. Power of two.
const icacheSize = 256

// codeIndex is the direct-mapped slot of pc in the icache and the
// superblock store (before masking to the store's size): the instruction
// slot XORed with a multiplicative mix of the page number. Every
// uProcess's text starts page-aligned, so indexing by the slot alone would
// put identical programs in different uProcesses on the same entries and
// make every switch between them miss. Within a page the mix is a
// constant, so straight-line code still fills consecutive entries.
func codeIndex(pc mem.Addr) uint64 {
	return uint64(pc)/InstrSize ^ pc.PageOf()*0x9E3779B1
}

// icacheEntry tags the decoded instruction with PC+1 so the zero value
// never hits.
type icacheEntry struct {
	tag   mem.Addr
	instr Instr
}

// setPC redirects control flow for the current instruction.
func (c *Core) setPC(a mem.Addr) {
	c.nextPC = a
	c.jumped = true
}

// read is the core's checked data load: the PTE∧PKRU dual check resolved
// through the per-core TLB, allocation-free unless it faults — and even
// then the fault lands in the core's scratch.
func (c *Core) read(addr mem.Addr, size int) (Word, *mem.Fault) {
	if c.mode == Slow {
		return c.AS.Read(addr, size, c.PKRU)
	}
	v, ok := c.AS.ReadVia(&c.tlb, addr, size, c.PKRU, &c.faultv)
	if !ok {
		return 0, &c.faultv
	}
	return v, nil
}

// write is read's store counterpart.
func (c *Core) write(addr mem.Addr, size int, v Word) *mem.Fault {
	if c.mode == Slow {
		return c.AS.Write(addr, size, v, c.PKRU)
	}
	if !c.AS.WriteVia(&c.tlb, addr, size, v, c.PKRU, &c.faultv) {
		return &c.faultv
	}
	return nil
}

// syncCaches invalidates the decoded-fetch cache and the superblock
// store together when their shared (AS, AS generation, InstallCode
// generation) tags go stale — one generation triple-check covers both,
// so mapping changes and code installs invalidate fused blocks exactly
// when they invalidate single decodes, and key re-tags invalidate
// neither.
func (c *Core) syncCaches() {
	if c.icAS != c.AS || c.icGen != c.AS.Generation() || c.icCodeGen != c.machine.codeGen {
		c.icache = [icacheSize]icacheEntry{}
		if c.sb != nil {
			c.sb.clear()
		}
		c.icAS, c.icGen, c.icCodeGen = c.AS, c.AS.Generation(), c.machine.codeGen
	}
}

// fetchFast resolves PC to a decoded instruction through the per-core
// icache, falling back to the machine's checked fetch on a miss.
func (c *Core) fetchFast() (Instr, *mem.Fault) {
	if c.mode == Slow {
		return c.machine.fetch(c.AS, c.PC, c.PKRU)
	}
	c.syncCaches()
	e := &c.icache[codeIndex(c.PC)&(icacheSize-1)]
	if e.tag == c.PC+1 {
		return e.instr, nil
	}
	ins, fault := c.machine.fetch(c.AS, c.PC, c.PKRU)
	if fault != nil {
		return nil, fault
	}
	e.tag, e.instr = c.PC+1, ins
	return ins, nil
}

// push writes v at [RSP-8] and decrements RSP.
func (c *Core) push(v Word) *mem.Fault {
	sp := mem.Addr(c.Regs[RSP] - 8)
	if fault := c.write(sp, 8, v); fault != nil {
		return fault
	}
	c.Regs[RSP] = Word(sp)
	return nil
}

// pop reads [RSP] and increments RSP.
func (c *Core) pop() (Word, *mem.Fault) {
	sp := mem.Addr(c.Regs[RSP])
	v, fault := c.read(sp, 8)
	if fault != nil {
		return 0, fault
	}
	c.Regs[RSP] = Word(sp + 8)
	return v, nil
}

// PostUserInterrupt posts vector (0–63) into the core's pending bitmap.
// Delivery happens before the next instruction boundary while UIF is set,
// mirroring the hardware's recognition of posted user interrupts.
func (c *Core) PostUserInterrupt(vector uint8) {
	c.PendingVectors |= 1 << (vector & 63)
}

// deliverUserInterrupt vectors the core into its registered handler:
// hardware pushes the interrupted PC and the vector number onto the current
// stack, clears UIF, and jumps to the handler (§2.2).
func (c *Core) deliverUserInterrupt() *mem.Fault {
	// Lowest pending vector wins; the caller guarantees the bitmap is
	// non-empty, so TrailingZeros64 is in [0, 63].
	vec := uint8(bits.TrailingZeros64(c.PendingVectors))
	c.PendingVectors &^= 1 << vec
	if fault := c.push(Word(c.PC)); fault != nil {
		return fault
	}
	if fault := c.push(Word(vec)); fault != nil {
		return fault
	}
	c.UIF = false
	c.PC = c.HandlerAddr
	c.Cycles += int64(float64(c.Costs.UintrDeliver) * c.Costs.ClockGHz)
	return nil
}

// raise routes a fault through the OnFault hook or halts the core.
func (c *Core) raise(f *mem.Fault) {
	if c.Hooks.OnFault != nil && c.Hooks.OnFault(c, f) {
		return
	}
	c.Fault = f
	c.Halted = true
}

// Inject raises a synthetic fault on the core at an instruction boundary,
// as if the instruction about to execute had faulted — the entry point the
// fault-injection harness uses to model wild writes and gate crashes. The
// fault takes the same path as an organic one (the OnFault hook, i.e. the
// runtime's SIGSEGV handler, gets first refusal); Inject reports whether
// the fault was contained (true) or fail-stopped the core (false).
func (c *Core) Inject(f *mem.Fault) bool {
	c.raise(f)
	return c.Fault == nil
}

// Step fetches, checks, and executes one instruction. It reports whether
// the core can continue (i.e. it is not halted). A core that was never
// dispatched has no address space yet and simply cannot run — stepping it
// is a no-op, not a fault.
func (c *Core) Step() bool {
	c.ran = true
	return c.step()
}

// step is Step without marking the core as run — the per-instruction
// boundary the superblock path defers to whenever fused execution cannot
// express one (delivery, unfetchable slots, and every block terminator's
// semantics are defined by this function).
func (c *Core) step() bool {
	if c.Halted || c.Stalled || c.AS == nil {
		return false
	}
	// Recognise pending user interrupts at the instruction boundary,
	// unless the core is in the masked privileged mode.
	if c.uintrDeliverable() {
		if fault := c.deliverUserInterrupt(); fault != nil {
			c.raise(fault)
			return !c.Halted
		}
	}
	instr, fault := c.fetchFast()
	if fault != nil {
		c.raise(fault)
		return !c.Halted
	}
	c.nextPC = c.PC + InstrSize
	c.jumped = false
	c.Cycles += instr.Cycles(c.Costs)
	if fault := instr.Exec(c); fault != nil {
		c.raise(fault)
		return !c.Halted
	}
	c.PC = c.nextPC
	return !c.Halted
}

// Run executes up to maxSteps instructions, stopping early on halt or
// fault. It returns the number of instructions executed — the step-count
// contract every quantum seam above (Manager.Step, RunTimesliced, the
// schedulers' time slices) relies on: Run(n) retires exactly the steps n
// per-instruction Steps would have, with identical cycle accounting.
// The default path executes through fused superblocks (see
// superblock.go), splitting a block when the remaining budget expires
// mid-run; the PerInstr and Slow modes take the per-instruction loop.
func (c *Core) Run(maxSteps int) int {
	c.ran = true
	n := 0
	if c.mode != Fused {
		for n < maxSteps && c.step() {
			n++
		}
		return n
	}
	for n < maxSteps {
		ran, cont := c.stepBlock(maxSteps - n)
		n += ran
		if !cont {
			break
		}
	}
	return n
}

// Machine groups physical memory, the cost model, and the global code store
// indexed by physical location (so that text shared between address spaces
// is the same code everywhere, as SMAS requires).
type Machine struct {
	Phys  *mem.Physical
	Costs *CostModel
	cores []*Core
	// code[frame ID][offset/InstrSize] is the instruction installed at
	// that physical location, nil where none is. Frame IDs are dense, and
	// each frame's slice grows only as far as its installed code.
	code [][]Instr
	// codeGen counts InstallCode calls; every core's decoded-fetch cache
	// is tagged with it, so newly installed code invalidates stale
	// decodes machine-wide on the next fetch.
	codeGen uint64
	// mode is every core's ExecMode; see SetExecMode.
	mode ExecMode
}

// NewMachine creates a machine with the given number of cores, all sharing
// physical memory but each with a nil address space until attached.
func NewMachine(cores int, costs *CostModel) *Machine {
	if costs == nil {
		costs = Default()
	}
	m := &Machine{
		Phys:  mem.NewPhysical(),
		Costs: costs,
	}
	for i := 0; i < cores; i++ {
		m.cores = append(m.cores, &Core{
			ID:      i,
			Costs:   costs,
			machine: m,
			UIF:     true,
		})
	}
	return m
}

// SetExecMode makes every core of the machine execute in mode. The modes
// are observably identical, so a machine takes its mode before it runs:
// SetExecMode panics once any core has run.
func (m *Machine) SetExecMode(mode ExecMode) {
	for _, c := range m.cores {
		if c.ran {
			panic("cpu: SetExecMode after a core ran")
		}
	}
	m.mode = mode
	for _, c := range m.cores {
		c.mode = mode
	}
}

// ExecMode reports how the machine's cores execute.
func (m *Machine) ExecMode() ExecMode { return m.mode }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// InstallCode registers a program's instructions at virtual address base in
// the given address space. The pages covering the program must already be
// mapped; the instructions are recorded against the backing *frames*, so
// any address space sharing those frames executes the same code.
func (m *Machine) InstallCode(as *mem.AddressSpace, base mem.Addr, prog []Instr) error {
	if base%InstrSize != 0 {
		return fmt.Errorf("cpu: code base %#x not instruction aligned", uint64(base))
	}
	m.codeGen++
	for i, ins := range prog {
		a := base + mem.Addr(i*InstrSize)
		pte, ok := as.Lookup(a)
		if !ok {
			return fmt.Errorf("cpu: code page %#x not mapped", uint64(a))
		}
		m.setCode(pte.Frame.ID, a.Offset()/InstrSize, ins)
	}
	return nil
}

// setCode installs ins at instruction slot i of frame id.
func (m *Machine) setCode(id int, i uint64, ins Instr) {
	if id >= len(m.code) {
		m.code = append(m.code, make([][]Instr, id+1-len(m.code))...)
	}
	if c := m.code[id]; i >= uint64(len(c)) {
		m.code[id] = append(c, make([]Instr, i+1-uint64(len(c)))...)
	}
	m.code[id][i] = ins
}

// codeAt returns the instruction installed at offset off of frame, or nil.
func (m *Machine) codeAt(frame *mem.Frame, off uint64) Instr {
	if off%InstrSize != 0 || frame.ID >= len(m.code) {
		return nil
	}
	if c := m.code[frame.ID]; off/InstrSize < uint64(len(c)) {
		return c[off/InstrSize]
	}
	return nil
}

// FetchAt returns the instruction mapped at addr in as, without permission
// checks — used by the loader's static code inspection (§5.2.1), which reads
// the program image it is installing.
func (m *Machine) FetchAt(as *mem.AddressSpace, addr mem.Addr) (Instr, bool) {
	pte, ok := as.Lookup(addr)
	if !ok {
		return nil, false
	}
	ins := m.codeAt(pte.Frame, addr.Offset())
	return ins, ins != nil
}

// fetch resolves PC to an instruction, enforcing the execute permission on
// the text page. PKRU is not consulted for fetches (MPK does not mediate
// execution), but the page must be executable.
func (m *Machine) fetch(as *mem.AddressSpace, pc mem.Addr, pkru mpk.PKRU) (Instr, *mem.Fault) {
	frame, fault := as.Check(pc, mpk.AccessExec, pkru)
	if fault != nil {
		return nil, fault
	}
	ins := m.codeAt(frame, pc.Offset())
	if ins == nil {
		return nil, &mem.Fault{Addr: pc, Kind: mem.FaultPerm, Op: mpk.AccessExec}
	}
	return ins, nil
}

// NsFor converts a core's accumulated cycles to nanoseconds under the
// machine's cost model.
func (m *Machine) NsFor(cycles int64) float64 {
	return float64(cycles) / m.Costs.ClockGHz
}

package cpu

import (
	"math/bits"

	"vessel/internal/mem"
)

// Superblock execution fuses runs of straight-line decoded instructions
// into single-dispatch units. The per-instruction Step loop pays, for
// every instruction, the pending-interrupt predicate, the code cache's
// generation check and tag compare, nextPC/jumped bookkeeping,
// and a virtual Cycles() call. A superblock pays all of that once per
// run: at fetch time the decoder greedily assembles consecutive
// instructions into a cached entry (terminated by control flow, by any
// instruction that can change interrupt deliverability or protection
// state, by a page crossing, or by the length cap), validates
// permissions for every constituent fetch with the full page-table walk
// at fill time, compiles each straight-line instruction into a flat µop
// record, and precomputes per-instruction cycle prefix sums. At
// execution time a hit costs one boundary check, one tag compare, a
// jump-table switch over the µop prefix (no interface dispatch; memory
// µops go straight to the width-specialized TLB accessors), and a single
// cycle-accounting update from the prefix table.
//
// Coherence rides the existing generation counters for free: superblock
// entries live in the code cache of their address space (core.go), one
// per (machine, AS) and shared by every core that runs in it, behind the
// same (AS generation, InstallCode generation) tags as the decoded-fetch
// cache, and syncCaches clears both together, so Map/Unmap/Protect/
// ShareRange and InstallCode invalidate fused blocks exactly when they
// invalidate single decodes, for every core at once. A block is a
// function of the AS, the generations and its start PC only: exec
// permission for every page it spans was verified at fill time and
// cannot have changed while the tags match, and its prefix sums come
// from the cost model all of the machine's cores share. PKRU is never
// consulted for fetches (mpk.PKRU.Check passes AccessExec
// unconditionally), so blocks stay warm across WRPKRU — which is a
// terminator anyway — and across SetPKey, which bumps no generation: a
// block caches decoded code, never a data page's key. Its loads and
// stores still go through the executing core's TLB, which reads the key
// through its cached PTE pointer, so a µop touching a re-tagged page sees
// the new key and faults precisely.
//
// Delivered behavior is byte-identical to the per-instruction loop by
// construction:
//
//   - Interrupt boundaries: deliverability (UIF, pending bitmap,
//     handler, PKRU-mask) cannot change inside a straight-line prefix —
//     every instruction that can change it (SENDUIPI, STUI, CLUI,
//     UIRET, WRPKRU, HLT, Hook, and all control flow) terminates a
//     block — so checking once at block entry is exactly equivalent to
//     checking at every boundary.
//   - Faults: a mid-block data fault bails out to the per-instruction
//     contract — PC and the cycle counter are fixed up to precisely the
//     faulting instruction (cycles charged through it, as Step charges
//     before Exec) before the fault is raised, so the OnFault hook and
//     halt state observe exactly what the slow loop would show.
//   - Quantum expiry: Core.Run splits a block at the step budget,
//     executing only the remaining quota and charging only its prefix
//     cycles, so Run(n) retires exactly the same instructions at the
//     same accounting as n per-instruction Steps.
const (
	// sbEntriesPerCore and sbMaxEntries size an address space's store
	// of direct-mapped superblock entries (see sbStoreSize).
	sbEntriesPerCore = 64
	sbMaxEntries     = 512
	// sbMaxLen caps fused-run length — long enough to swallow hot inner
	// loops whole, short enough to bound entry size and quantum-split
	// waste.
	sbMaxLen = 32
)

// A µop is a straight-line instruction compiled to a flat tagged record:
// one opcode byte, two register operands, one immediate. The interior of
// a superblock executes as a dense switch over µop codes — a jump table,
// not an interface dispatch — with the memory ops calling the width-
// specialized TLB accessors (mem.ReadVia8/WriteVia8) directly. Each µop
// is semantically identical to its source Instr's Exec; compileOp is the
// single point that guarantees it.
type sbOp struct {
	code uint8
	a, b uint8
	imm  int64
}

// µop codes. The switch in stepBlock must cover exactly these.
const (
	opMovImm uint8 = iota
	opMovReg
	opLoad  // a=Dst, b=Base, imm=Off
	opStore // a=Src, b=Base, imm=Off
	opLoadAbs
	opStoreAbs
	opAdd
	opAddImm
	opMulImm
	opPush
	opPop
	opWork // cycles live in the prefix table; execution is a no-op
	opCpuID
	opRdPkru
)

// compileOp translates a fusible instruction to its µop. The fusible set
// (reported by ok) doubles as the straight-line whitelist: no control
// flow, no reads of PC/nextPC/cycle state, no effect on interrupt
// deliverability or protection state, no hooks. Everything else —
// including Instr implementations from other packages (gate trampolines,
// syscall hooks) — conservatively terminates a block and executes with
// full per-instruction boundary semantics.
func compileOp(ins Instr) (op sbOp, ok bool) {
	switch v := ins.(type) {
	case MovImm:
		return sbOp{code: opMovImm, a: uint8(v.Dst), imm: int64(v.Imm)}, true
	case MovReg:
		return sbOp{code: opMovReg, a: uint8(v.Dst), b: uint8(v.Src)}, true
	case Load:
		return sbOp{code: opLoad, a: uint8(v.Dst), b: uint8(v.Base), imm: v.Off}, true
	case Store:
		return sbOp{code: opStore, a: uint8(v.Src), b: uint8(v.Base), imm: v.Off}, true
	case LoadAbs:
		return sbOp{code: opLoadAbs, a: uint8(v.Dst), imm: int64(v.Addr)}, true
	case StoreAbs:
		return sbOp{code: opStoreAbs, a: uint8(v.Src), imm: int64(v.Addr)}, true
	case Add:
		return sbOp{code: opAdd, a: uint8(v.Dst), b: uint8(v.Src)}, true
	case AddImm:
		return sbOp{code: opAddImm, a: uint8(v.Dst), imm: v.Imm}, true
	case MulImm:
		return sbOp{code: opMulImm, a: uint8(v.Dst), imm: v.Imm}, true
	case Push:
		return sbOp{code: opPush, a: uint8(v.Src)}, true
	case Pop:
		return sbOp{code: opPop, a: uint8(v.Dst)}, true
	case Work:
		return sbOp{code: opWork}, true
	case CpuID:
		return sbOp{code: opCpuID, a: uint8(v.Dst)}, true
	case RdPkru:
		return sbOp{code: opRdPkru}, true
	}
	return sbOp{}, false
}

// sbEntry is one cached superblock: the straight-line run starting at
// tag-1 compiled to µops, with per-instruction cycle prefix sums. tag is
// the start PC + 1 so the zero value never hits.
type sbEntry struct {
	tag mem.Addr
	n   int32
	// term, when non-nil, is the block's final instruction: a terminator
	// needing full per-instruction boundary semantics (control flow
	// writes nextPC, hooks observe core state), kept decoded rather than
	// compiled. A nil term means the block ended at a page crossing, the
	// length cap, or an unfetchable next slot, and every one of its n
	// instructions is a µop.
	term Instr
	ops  [sbMaxLen]sbOp
	// prefix[k] is the summed cycle cost of the block's first k
	// instructions under the machine's cost model, so a whole or partial
	// block charges the cycle counter with one add.
	prefix [sbMaxLen + 1]int64
}

// sbStore is an address space's superblock store, indexed by codeIndex
// of a block's starting PC and allocated on the first fused block run in
// the space.
type sbStore []sbEntry

// sbStoreSize is the number of entries in the store of a machine with
// cores cores: 64 per core that may share it, rounded up to a power of
// two, at most 512. At about 800 B an entry, a domain's 512 cost about
// 400 KB — enough that its uProcesses' blocks stay resident while they
// move across its cores — while a one-core machine keeps the 64 entries
// (52 KB) that are all one core can use between switches.
func sbStoreSize(cores int) int {
	return min(sbMaxEntries, sbEntriesPerCore<<bits.Len(uint(max(cores, 1)-1)))
}

// clear invalidates every entry by tag, leaving the decoded payloads in
// place — a generation bump costs a tag sweep, not a memclr of the whole
// store.
func (s sbStore) clear() {
	for i := range s {
		s[i].tag = 0
	}
}

// uintrDeliverable reports whether a pending user interrupt would be
// recognised at the next instruction boundary — Step's delivery
// predicate, shared with the superblock path. Every instruction that
// can flip it terminates a block, so one check at block entry covers
// every interior boundary.
func (c *Core) uintrDeliverable() bool {
	return c.UIF && c.PendingVectors != 0 && c.HandlerAddr != 0 &&
		(c.PrivilegedPKRU == nil || c.PKRU != *c.PrivilegedPKRU)
}

// fillSuperblock assembles the superblock starting at c.PC into e,
// fetching each constituent through the machine's fully-checked fetch
// (the batched up-front permission validation: every text page the
// block touches is walked and exec-checked here, once, and the
// generation tags keep that verdict fresh). Assembly stops at a
// terminator (kept as the block's last instruction), a page crossing,
// the length cap, or an unfetchable slot (the block ends early and the
// per-instruction path raises the fault if execution reaches it).
// Reports whether a non-empty block was built; an empty block means the
// very first fetch faults and the caller must take the precise path.
func (c *Core) fillSuperblock(e *sbEntry) bool {
	e.tag = 0 // invalid while filling
	e.term = nil
	pc := c.PC
	n := 0
	for n < sbMaxLen {
		ins, fault := c.machine.fetch(c.AS, pc, c.PKRU)
		if fault != nil {
			break
		}
		op, fusible := compileOp(ins)
		e.prefix[n+1] = e.prefix[n] + ins.Cycles(c.Costs)
		n++
		if !fusible {
			e.term = ins
			break
		}
		e.ops[n-1] = op
		pc += InstrSize
		if pc.Offset() == 0 {
			break // page crossing: one block never spans text pages
		}
	}
	if n == 0 {
		return false
	}
	e.n, e.tag = int32(n), c.PC+1
	return true
}

// stepBlock executes at most budget instructions starting at c.PC as a
// superblock, falling back to the per-instruction path for any boundary
// the fused loop cannot express (pending interrupt, unfetchable first
// slot). It returns the number of retired steps under Run's counting
// contract — a step counts exactly when per-instruction Step would have
// returned true — and whether the core can continue. budget must be ≥1.
func (c *Core) stepBlock(budget int) (int, bool) {
	if c.Halted || c.Stalled || c.AS == nil {
		return 0, false
	}
	if c.uintrDeliverable() {
		// Delivery (and its fault quirks — a contained delivery fault
		// consumes a step without retiring an instruction) is exactly
		// the per-instruction boundary; take it verbatim.
		if c.step() {
			return 1, true
		}
		return 0, false
	}
	if !c.codeFresh() {
		c.syncCaches()
	}
	cc := c.code
	if cc.sb == nil {
		cc.sb = make(sbStore, sbStoreSize(len(c.machine.cores)))
	}
	e := &cc.sb[codeIndex(c.PC)&uint64(len(cc.sb)-1)]
	if e.tag != c.PC+1 {
		if !c.fillSuperblock(e) {
			// First fetch faults: the precise path raises it with
			// Step's exact containment-and-counting behavior.
			if c.step() {
				return 1, true
			}
			return 0, false
		}
		c.sbFills++
	} else {
		c.sbHits++
	}
	n := int(e.n)
	straight := n
	term := e.term
	if term != nil {
		straight = n - 1
	}
	if budget < n {
		// Quantum expiry splits the block: retire only the remaining
		// quota, never the terminator (it needs a full boundary).
		straight = budget
		term = nil
	}
	// The µop interpreter: a dense switch over compiled straight-line
	// ops. The AS/PKRU/TLB locals are loop-invariant by construction —
	// every instruction that could change them terminates a block.
	as, tlb, pkru := c.AS, &c.tlb, c.PKRU
	pc := c.PC
	faultAt := -1
	for i := 0; i < straight; i++ {
		op := &e.ops[i]
		switch op.code {
		case opMovImm:
			c.Regs[op.a] = Word(op.imm)
		case opMovReg:
			c.Regs[op.a] = c.Regs[op.b]
		case opLoad:
			addr := mem.Addr(int64(c.Regs[op.b]) + op.imm)
			v, ok := as.ReadVia8(tlb, addr, pkru, &c.faultv)
			if !ok {
				faultAt = i
				break
			}
			c.Regs[op.a] = v
		case opStore:
			addr := mem.Addr(int64(c.Regs[op.b]) + op.imm)
			if !as.WriteVia8(tlb, addr, c.Regs[op.a], pkru, &c.faultv) {
				faultAt = i
			}
		case opLoadAbs:
			v, ok := as.ReadVia8(tlb, mem.Addr(op.imm), pkru, &c.faultv)
			if !ok {
				faultAt = i
				break
			}
			c.Regs[op.a] = v
		case opStoreAbs:
			if !as.WriteVia8(tlb, mem.Addr(op.imm), c.Regs[op.a], pkru, &c.faultv) {
				faultAt = i
			}
		case opAdd:
			c.Regs[op.a] += c.Regs[op.b]
		case opAddImm:
			c.Regs[op.a] = Word(int64(c.Regs[op.a]) + op.imm)
		case opMulImm:
			c.Regs[op.a] = Word(int64(c.Regs[op.a]) * op.imm)
		case opPush:
			sp := mem.Addr(c.Regs[RSP] - 8)
			if !as.WriteVia8(tlb, sp, c.Regs[op.a], pkru, &c.faultv) {
				faultAt = i
				break
			}
			c.Regs[RSP] = Word(sp)
		case opPop:
			sp := mem.Addr(c.Regs[RSP])
			v, ok := as.ReadVia8(tlb, sp, pkru, &c.faultv)
			if !ok {
				faultAt = i
				break
			}
			c.Regs[RSP] = Word(sp + 8)
			c.Regs[op.a] = v
		case opWork:
			// Cycle cost lives in the prefix table.
		case opCpuID:
			c.Regs[op.a] = Word(c.ID)
		case opRdPkru:
			c.Regs[RAX] = Word(uint32(c.PKRU))
		}
		if faultAt >= 0 {
			// Mid-block bailout: restore the precise-interrupt
			// illusion before anyone looks. PC lands on the faulting
			// instruction; cycles are charged through it, exactly as
			// Step charges before Exec.
			c.sbBailouts++
			c.PC = pc + mem.Addr(i)*InstrSize
			c.Cycles += e.prefix[i+1]
			c.raise(&c.faultv)
			if c.Halted {
				return i, false
			}
			return i + 1, true
		}
	}
	c.Cycles += e.prefix[straight]
	c.PC = pc + mem.Addr(straight)*InstrSize
	if term == nil {
		return straight, true
	}
	// The terminator retires with full per-instruction semantics, minus
	// the fetch (decoded at fill time, validated by the entry tag).
	c.nextPC = c.PC + InstrSize
	c.jumped = false
	c.Cycles += e.prefix[n] - e.prefix[n-1]
	if fault := term.Exec(c); fault != nil {
		c.sbBailouts++
		c.raise(fault)
		if c.Halted {
			return straight, false
		}
		return straight + 1, true
	}
	c.PC = c.nextPC
	if c.Halted {
		return straight, false
	}
	return straight + 1, true
}

// SuperblockStats reports how many superblocks this core filled, hit and
// bailed out of — zeros when the core never ran fused. The store is
// shared, so a core can hit blocks another core filled.
func (c *Core) SuperblockStats() (fills, hits, bailouts uint64) {
	return c.sbFills, c.sbHits, c.sbBailouts
}

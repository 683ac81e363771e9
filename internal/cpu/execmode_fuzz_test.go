package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// The fuzzed machine's memory: two exec-only text pages (the handler at
// the start of the first, the program running across the boundary into
// the second), an RW data page under key 0, an RW data page under key 1,
// a read-only page, an unmapped page, and a stack; a two-core run maps a
// second core's stack too.
const (
	fzText    = mem.Addr(0x1000)
	fzData0   = mem.Addr(0x10000)
	fzData1   = mem.Addr(0x11000)
	fzRO      = mem.Addr(0x12000)
	fzUnmap   = mem.Addr(0x13000)
	fzStack   = mem.Addr(0x20000)
	fzStack1  = mem.Addr(0x30000)
	fzMaxOps  = 48
	fzMaxRuns = 32
)

// fzReg picks a register for generated arithmetic to write. RAX carries
// WRPKRU values, RCX the data base, RSP the stack and R9 the handler's
// vector, so none of them is clobbered at random.
func fzReg(b byte) Reg { return [...]Reg{RBX, RDX, RSI, RDI, RBP, R8}[b%6] }

// fzAddr picks a data address: in range under either key, the last word
// of a page, a word straddling two pages, read-only, unmapped, exec-only
// text, or the stack.
func fzAddr(b byte) mem.Addr {
	w := mem.Addr(b>>3&15) * 8
	return [...]mem.Addr{
		fzData0 + w, fzData1 + w, fzData0 + mem.PageSize - 8, fzData0 + mem.PageSize - 4,
		fzRO + w, fzUnmap + w, fzText + w, fzStack + mem.PageSize - 8 - w,
	}[b&7]
}

// fzPKRU picks a WRPKRU value: allow all, deny key 1, read-only key 1, or
// deny key 0 (the stack's key, so pushes and deliveries fault too).
func fzPKRU(b byte) Word {
	return Word([...]mpk.PKRU{
		mpk.AllowAllValue,
		mpk.AllowAllValue.WithAccess(1, false, false),
		mpk.AllowAllValue.WithAccess(1, true, false),
		mpk.AllowAllValue.WithAccess(0, false, false),
	}[b&3])
}

// fzProgram decodes ops (three bytes each) into a program assembled at
// base: RCX set to the data base, the ops, and a jump back to the first
// op, so the program runs for as long as the schedule steps it.
func fzProgram(ops []byte, base mem.Addr) []Instr {
	prog := []Instr{MovImm{RCX, Word(fzData0)}}
	n := len(ops) / 3
	// at[i] is the address op i starts at; WRPKRU ops take two slots.
	at := make([]mem.Addr, n+1)
	slots := 1
	for i := 0; i < n; i++ {
		at[i] = base + mem.Addr(slots)*InstrSize
		slots++
		if ops[3*i]%15 == 11 {
			slots++
		}
	}
	at[n] = base + mem.Addr(slots)*InstrSize
	for i := 0; i < n; i++ {
		op, a, b := ops[3*i]%15, ops[3*i+1], ops[3*i+2]
		dst, src := fzReg(a), fzReg(b)
		switch op {
		case 0:
			prog = append(prog, MovImm{dst, Word(b) * 0x0101010101})
		case 1:
			prog = append(prog, MovReg{dst, src})
		case 2:
			prog = append(prog, Add{dst, src})
		case 3:
			prog = append(prog, AddImm{dst, int64(int8(b))})
		case 4:
			prog = append(prog, MulImm{dst, int64(b % 7)})
		case 5:
			prog = append(prog, Work{N: 1 + int64(b%50)})
		case 6:
			prog = append(prog, Load{dst, RCX, int64(fzAddr(b)) - int64(fzData0)})
		case 7:
			prog = append(prog, Store{dst, RCX, int64(fzAddr(b)) - int64(fzData0)})
		case 8:
			prog = append(prog, LoadAbs{dst, fzAddr(b)})
		case 9:
			prog = append(prog, StoreAbs{dst, fzAddr(b)})
		case 10:
			if b&1 == 0 {
				prog = append(prog, Push{dst})
			} else {
				prog = append(prog, Pop{dst})
			}
		case 11:
			prog = append(prog, MovImm{RAX, fzPKRU(b)}, WrPkru{})
		case 12:
			if b&1 == 0 {
				prog = append(prog, Stui{})
			} else {
				prog = append(prog, Clui{})
			}
		case 13:
			prog = append(prog, Jmp{Target: at[min(i+1+int(b%4), n)]})
		case 14:
			switch {
			case b%16 == 15:
				prog = append(prog, Halt{})
			case b&1 == 0:
				prog = append(prog, CpuID{dst})
			default:
				prog = append(prog, RdPkru{})
			}
		}
	}
	return append(prog, Jmp{Target: at[0]})
}

// fzOutcome is everything a mode may not change: the final state of each
// core, the memory the program can write, the steps each quantum retired,
// every contained fault with the core, PC and cycle count it was raised
// at, and the core, cycle count and stack pointer at every user-interrupt
// delivery.
type fzOutcome struct {
	Cores      []fzCore
	Ran        []int
	Faults     []fzFault
	Deliveries [][3]int64
	Mem        []byte
}

type fzCore struct {
	Regs    [NumRegs]Word
	PC      mem.Addr
	PKRU    mpk.PKRU
	Cycles  int64
	Halted  bool
	UIF     bool
	Pending uint64
	Fault   *mem.Fault
}

type fzFault struct {
	F      mem.Fault
	Core   int
	PC     mem.Addr
	Cycles int64
}

// fzRun runs the fuzzed program on a fresh machine in mode, on cores
// cores (1 or 2) of it that share one address space. Each schedule entry
// (two bytes) runs one quantum, on the cores in turn, and may post a
// vector to the core that ran and re-tag a data page after it. In a
// two-core run the entry may also change the text under both cores'
// shared decoded code (see FuzzExecModes). A split run retires every
// quantum one Run(1) at a time; it reports the retired-step count at
// which each delivery landed, which a quantum-sized Run cannot see from
// outside.
func fzRun(t *testing.T, mode ExecMode, cores int, hdr byte, ops, sched []byte, split bool) (fzOutcome, []int) {
	m := NewMachine(cores, Default())
	m.SetExecMode(mode)
	as := mem.NewAddressSpace(m.Phys)
	for _, r := range []struct {
		at   mem.Addr
		n    uint64
		perm mem.Perm
		key  mpk.PKey
	}{
		{fzText, 2, mem.PermXOnly, 0}, {fzData0, 1, mem.PermRW, 0}, {fzData1, 1, mem.PermRW, 1},
		{fzRO, 1, mem.PermRead, 0}, {fzStack, 1, mem.PermRW, 0},
	} {
		if err := as.MapRange(r.at, r.n*mem.PageSize, r.perm, r.key); err != nil {
			t.Fatal(err)
		}
	}
	if cores == 2 {
		if err := as.MapRange(fzStack1, mem.PageSize, mem.PermRW, 0); err != nil {
			t.Fatal(err)
		}
	}
	var out fzOutcome
	var landed []int
	done := 0
	handler := []Instr{
		Hook{Name: "delivered", Fn: func(c *Core) *mem.Fault {
			out.Deliveries = append(out.Deliveries, [3]int64{int64(c.ID), c.Cycles, int64(c.Regs[RSP])})
			landed = append(landed, done)
			return nil
		}},
		Pop{R9},
		UiRet{},
	}
	if err := m.InstallCode(as, fzText, handler); err != nil {
		t.Fatal(err)
	}
	// The program starts 1-64 slots before the second text page, so its
	// straight-line runs cross the page boundary.
	base := fzText + mem.PageSize - mem.Addr(1+hdr&63)*InstrSize
	if err := m.InstallCode(as, base, fzProgram(ops, base)); err != nil {
		t.Fatal(err)
	}
	onFault := func(c *Core, f *mem.Fault) bool {
		out.Faults = append(out.Faults, fzFault{*f, c.ID, c.PC, c.Cycles})
		if hdr&0x80 != 0 {
			return false // fail-stop
		}
		c.PC += InstrSize // contained: skip the faulting instruction
		return true
	}
	for i, stack := range []mem.Addr{fzStack, fzStack1}[:cores] {
		c := m.Core(i)
		c.AS, c.PC, c.PKRU = as, base, mpk.AllowAllValue
		c.Regs[RSP] = Word(stack + mem.PageSize)
		if hdr&0x40 == 0 {
			c.HandlerAddr = fzText
		}
		c.Hooks.OnFault = onFault
	}
	if len(sched) < 2 {
		sched = []byte{199, 0}
	}
	for i := 0; i+1 < len(sched) && i < 2*fzMaxRuns; i += 2 {
		c := m.Core(i / 2 % cores)
		q := 1 + int(sched[i]%23)
		if sched[i]&0x80 != 0 {
			q = 64 + int(sched[i]&0x7f)
		}
		ran := 0
		if split {
			for k := 0; k < q; k++ {
				r := c.Run(1)
				ran += r
				done += r
			}
		} else {
			ran = c.Run(q)
			done += ran
		}
		out.Ran = append(out.Ran, ran)
		v := sched[i+1]
		if v&0x80 != 0 {
			c.PostUserInterrupt(v & 63)
		}
		if v&0x40 != 0 {
			// Re-tag a data page, as a virtual-key eviction or refill
			// does between quanta, under warm TLBs and superblocks:
			// keys 0 and 1 are denied by some fzPKRU values, keys 2 and
			// 3 granted by all.
			page := [...]mem.Addr{fzData0, fzData1}[v&1]
			if err := as.SetPKey(page, mem.PageSize, mpk.PKey(v>>1&3)); err != nil {
				t.Fatal(err)
			}
		}
		if cores == 2 && v&0x80 == 0 {
			fzChangeText(t, m, as, base, ops, v>>3&7)
		}
	}
	for i := 0; i < cores; i++ {
		c := m.Core(i)
		k := fzCore{c.Regs, c.PC, c.PKRU, c.Cycles, c.Halted, c.UIF, c.PendingVectors, nil}
		if c.Fault != nil {
			f := *c.Fault
			k.Fault = &f
		}
		out.Cores = append(out.Cores, k)
	}
	for _, a := range []mem.Addr{fzData0, fzData1, fzStack, fzStack1}[:2+cores] {
		pte, _ := as.Lookup(a)
		out.Mem = append(out.Mem, pte.Frame.Data[:]...)
	}
	return out, landed
}

// fzChangeText changes the text both cores of a two-core run execute, as
// action selects: 1 re-installs the program with its ops rotated by one,
// so the same addresses hold different code; 2 drops exec permission
// from the second text page and 3 restores it. Anything else changes
// nothing. Each change bumps a generation the cores' shared decoded code
// is tagged with, so a core that ran a stale block or decode would
// diverge from Slow, which caches nothing.
func fzChangeText(t *testing.T, m *Machine, as *mem.AddressSpace, base mem.Addr, ops []byte, action byte) {
	var err error
	switch action {
	case 1:
		rot := append(append([]byte{}, ops[min(3, len(ops)):]...), ops[:min(3, len(ops))]...)
		err = m.InstallCode(as, base, fzProgram(rot, base))
	case 2:
		err = as.Protect(fzText+mem.PageSize, mem.PageSize, mem.PermRead)
	case 3:
		err = as.Protect(fzText+mem.PageSize, mem.PageSize, mem.PermXOnly)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzExecModes runs one generated program on three machines, one per
// execution mode, with quanta of generated sizes and user interrupts and
// data-page key re-tags between them, and requires identical outcomes:
// registers, PC, PKRU, cycles, halt and fault state, pending vectors, the
// memory the program writes, every contained fault, and every delivery's
// cycle count and landing step. Each mode also runs the schedule one step
// at a time, which must change nothing but reveals the step each delivery
// lands on. Then the same schedule runs on two cores of one machine that
// share the address space, one quantum each in turn, under Fused and
// under Slow: the second core runs blocks and decodes the first one
// filled, and text changes between quanta must reach both.
//
// The input is a header byte (bits 0-5: how many slots before the second
// text page the program starts; bit 6: no interrupt handler; bit 7:
// faults fail-stop instead of being skipped), an op count, three bytes
// per op, then two bytes per quantum: its size, and an action byte whose
// bit 7 posts the vector in bits 0-5 after the quantum and whose bit 6
// re-tags data page 0 or 1 (bit 0) to key 0-3 (bits 1-2). In the
// two-core run, an action byte with bit 7 clear also changes the text as
// its bits 3-5 select (fzChangeText); the one-core runs ignore them.
func FuzzExecModes(f *testing.F) {
	// Straight-line ALU ops and Work, crossing into the second text page.
	f.Add(fzSeed(3, []byte{0, 0, 7, 1, 1, 2, 2, 2, 0, 3, 3, 0xfe, 4, 4, 5, 5, 0, 9},
		0xff, 0, 5, 0, 7, 0, 20, 0))
	// In-range loads and stores (the last word of a page too), stack
	// traffic, and a forward jump.
	f.Add(fzSeed(8, []byte{7, 0, 0x08, 6, 1, 0x08, 9, 2, 0x11, 10, 3, 0, 10, 4, 1, 13, 0, 2, 8, 5, 0x2a},
		9, 0, 17, 0, 0x85, 0))
	// Faulting accesses, contained: read-only, unmapped, straddling two
	// pages, exec-only text, and a pop past the stack top.
	f.Add(fzSeed(2, []byte{7, 0, 4, 8, 1, 5, 6, 2, 3, 9, 3, 6, 10, 5, 1, 3, 0, 1},
		11, 0, 13, 0, 2, 0))
	// A fault that halts the core (fail-stop).
	f.Add(fzSeed(0x82, []byte{7, 0, 0, 3, 1, 1, 6, 2, 3, 3, 1, 1}, 40, 0, 3, 0))
	// WRPKRU denying key 1, making it read-only, denying key 0 (the
	// stack), then a halt.
	f.Add(fzSeed(5, []byte{11, 0, 1, 9, 0, 1, 11, 0, 2, 8, 1, 1, 9, 1, 1, 11, 0, 3, 10, 0, 0, 11, 0, 0, 14, 0, 15},
		31, 0, 7, 0))
	// CLUI, vectors posted between quanta, STUI mid-quantum: delivery
	// waits for the STUI boundary.
	f.Add(fzSeed(1, []byte{12, 0, 1, 0, 0, 9, 5, 0, 3, 3, 1, 1, 12, 0, 0},
		4, 0x87, 6, 0x85, 9, 0x81, 30, 0))
	// A vector posted while PKRU denies the stack's key: the delivery
	// push faults.
	f.Add(fzSeed(1, []byte{11, 0, 3, 5, 0, 2, 11, 0, 0, 5, 0, 2}, 2, 0x83, 3, 0, 5, 0x84, 20, 0))
	// Odd quanta splitting fused blocks, with vectors and a long run.
	f.Add(fzSeed(0x3f, []byte{2, 1, 3, 1, 4, 4, 2, 3, 6, 3, 0x08, 7, 4, 0x10, 5, 5, 9, 12, 12, 0, 0, 14, 0, 0, 14, 1, 1},
		1, 0, 2, 0x80, 4, 0, 6, 0x8a, 10, 0, 0x81, 0x82, 3, 0))
	// Re-tags between quanta of a load/store loop over both data pages,
	// under PKRU values that deny key 1 and then key 0: page 0 moves to
	// denied key 1, back to key 0, to granted key 2; page 1 to key 3,
	// then to denied key 0. A TLB that kept a page's old key would let
	// an access through that should fault, or fault one that should not.
	f.Add(fzSeed(0x10, []byte{11, 0, 1, 7, 0, 0x08, 6, 1, 0x08, 9, 2, 0x11, 8, 3, 0x09, 5, 0, 3, 11, 0, 3, 7, 4, 0x18, 9, 5, 0x19},
		12, 0, 12, 0x42, 12, 0x40, 40, 0x44, 9, 0x47, 12, 0xc1, 30, 0x40, 25, 0))
	// Two cores: the second runs blocks the first filled, the program is
	// re-installed rotated between their quanta (twice), and the second
	// text page loses exec permission and gets it back, so each core's
	// next quantum must see the change, not a shared stale block.
	f.Add(fzSeed(4, []byte{3, 0, 5, 7, 1, 0x08, 6, 2, 0x08, 2, 3, 1, 5, 0, 9, 13, 0, 1, 4, 4, 3, 0, 5, 0x11},
		9, 0, 9, 0, 7, 0x08, 7, 0, 9, 0, 9, 0x08, 9, 0, 12, 0x10, 12, 0, 5, 0x18, 20, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		hdr, n := data[0], int(data[1])%(fzMaxOps+1)
		rest := data[2:]
		ops := rest[:min(3*n, len(rest)/3*3)]
		sched := rest[len(ops):]
		modes := []ExecMode{Fused, PerInstr, Slow}
		var want fzOutcome
		var wantLanded []int
		for i, mode := range modes {
			for _, split := range []bool{false, true} {
				got, landed := fzRun(t, mode, 1, hdr, ops, sched, split)
				if i == 0 && !split {
					want = got
				} else if err := fzDiff(want, got); err != "" {
					t.Fatalf("mode %d split=%v differs from Fused: %s", mode, split, err)
				}
				if !split {
					continue
				}
				if i == 0 {
					wantLanded = landed
				} else if !reflect.DeepEqual(landed, wantLanded) {
					t.Fatalf("mode %d: deliveries landed at steps %v, Fused at %v", mode, landed, wantLanded)
				}
			}
		}
		fused, _ := fzRun(t, Fused, 2, hdr, ops, sched, false)
		slow, _ := fzRun(t, Slow, 2, hdr, ops, sched, false)
		if err := fzDiff(slow, fused); err != "" {
			t.Fatalf("two cores: Fused differs from Slow: %s", err)
		}
	})
}

// fzSeed encodes a fuzz input from a header, ops of three bytes each, and
// quanta of two bytes each.
func fzSeed(hdr byte, ops []byte, quanta ...byte) []byte {
	return append(append([]byte{hdr, byte(len(ops) / 3)}, ops...), quanta...)
}

// fzDiff names the first field in which got differs from want.
func fzDiff(want, got fzOutcome) string {
	if !bytes.Equal(want.Mem, got.Mem) {
		return "memory"
	}
	want.Mem, got.Mem = nil, nil
	if reflect.DeepEqual(want, got) {
		return ""
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Sprintf("%s: %+v, want %+v", wv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return "?"
}

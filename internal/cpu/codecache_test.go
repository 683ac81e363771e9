package cpu

import (
	"testing"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// onSecondCore points core 1 of m at as, at the standard loop's entry,
// with the same stack as core 0 (the cores run one after the other).
func onSecondCore(m *Machine, as *mem.AddressSpace) *Core {
	c := m.Core(1)
	c.AS, c.PKRU, c.PC = as, mpk.AllowAllValue, 0x1000
	c.Regs[RSP] = 0x21000
	return c
}

// TestCodeCacheSharedAcrossCores runs the standard loop on core 1 after
// core 0 filled its blocks: every block core 1 runs is already in the
// address space's store, so it fills nothing and hits, while the stats
// stay per core and both cores retire the same state.
func TestCodeCacheSharedAcrossCores(t *testing.T) {
	m, c0, as := sbLoopEnv(t, Fused)
	fills0, hits0, _ := c0.SuperblockStats()
	c1 := onSecondCore(m, as)
	if ran := c1.Run(32); ran != 32 || c1.Fault != nil {
		t.Fatalf("core 1 retired %d of 32 (fault %v)", ran, c1.Fault)
	}
	fills1, hits1, _ := c1.SuperblockStats()
	if fills1 != 0 || hits1 == 0 {
		t.Fatalf("core 1 fills=%d hits=%d, want 0 fills and some hits from core 0's blocks", fills1, hits1)
	}
	if f, h, _ := c0.SuperblockStats(); f != fills0 || h != hits0 {
		t.Fatalf("core 1's run moved core 0's stats: fills %d -> %d, hits %d -> %d", fills0, f, hits0, h)
	}
	if c1.Regs != c0.Regs || c1.PC != c0.PC || c1.Cycles != c0.Cycles {
		t.Fatalf("core 1 diverged from core 0: regs %v pc %#x cycles %d, want %v %#x %d",
			c1.Regs, c1.PC, c1.Cycles, c0.Regs, c0.PC, c0.Cycles)
	}
}

// TestCodeCacheInvalidatedForAllCores changes the text after core 0
// filled the address space's caches and core 1 ran from them: core 1's
// next run must see the change — refill the new code, or fault precisely
// on the first fetch — and never hit a stale block or decode. Both cached
// modes run it: Fused shares superblocks, PerInstr the decoded-fetch
// cache.
func TestCodeCacheInvalidatedForAllCores(t *testing.T) {
	for _, mode := range []ExecMode{Fused, PerInstr} {
		for _, tc := range []struct {
			name   string
			change func(*Machine, *mem.AddressSpace)
			faults bool // the first fetch faults, with kind
			kind   mem.FaultKind
		}{
			{"Protect", func(_ *Machine, as *mem.AddressSpace) {
				if err := as.Protect(0x1000, mem.PageSize, mem.PermRead); err != nil {
					t.Fatal(err)
				}
			}, true, mem.FaultPerm},
			{"Unmap", func(_ *Machine, as *mem.AddressSpace) { as.Unmap(0x1000, mem.PageSize) }, true, mem.FaultNotMapped},
			{"InstallCode", func(m *Machine, as *mem.AddressSpace) {
				install(t, m, as, 0x1000, []Instr{AddImm{RCX, 5}, AddImm{RCX, 1}, Halt{}})
			}, false, 0},
		} {
			m, _, as := sbLoopEnv(t, mode)
			c1 := onSecondCore(m, as)
			c1.Run(32) // core 1 holds the shared cache, warm
			tc.change(m, as)
			warm, _, _ := c1.SuperblockStats()
			c1.PC, c1.Cycles, c1.Regs[RCX] = 0x1000, 0, 0
			c1.Run(10)
			fills, _, _ := c1.SuperblockStats()
			if !tc.faults {
				if c1.Regs[RCX] != 6 || !c1.Halted || c1.Fault != nil {
					t.Fatalf("mode %d %s: stale code ran on core 1: rcx=%d halted=%v fault=%v",
						mode, tc.name, c1.Regs[RCX], c1.Halted, c1.Fault)
				}
				if mode == Fused && fills == warm {
					t.Fatalf("mode %d %s: core 1 ran new code without refilling", mode, tc.name)
				}
				continue
			}
			f := c1.Fault
			if f == nil || f.Kind != tc.kind || f.Op != mpk.AccessExec || f.Addr != 0x1000 {
				t.Fatalf("mode %d %s: fault = %v, want %v exec fault at 0x1000", mode, tc.name, f, tc.kind)
			}
			if c1.PC != 0x1000 || c1.Cycles != 0 || fills != warm {
				t.Fatalf("mode %d %s: imprecise fault: pc %#x cycles %d, fills %d -> %d",
					mode, tc.name, c1.PC, c1.Cycles, warm, fills)
			}
		}
	}
}

// TestCodeCacheSeparatesAddressSpaces installs different code at the same
// virtual address in two address spaces of one machine and moves both
// cores between them: each run must execute its own AS's code, and each
// AS keeps its own warm cache, so moving back refills nothing.
func TestCodeCacheSeparatesAddressSpaces(t *testing.T) {
	for _, mode := range []ExecMode{Fused, PerInstr} {
		m := NewMachine(2, Default())
		m.SetExecMode(mode)
		var spaces [2]*mem.AddressSpace
		for i := range spaces {
			as := mem.NewAddressSpace(m.Phys)
			if err := as.MapRange(0x1000, mem.PageSize, mem.PermXOnly, 0); err != nil {
				t.Fatal(err)
			}
			k := int64(i + 1)
			install(t, m, as, 0x1000, []Instr{MovImm{RBX, Word(k)}, AddImm{RBX, 10 * k}, MulImm{RBX, k}, Halt{}})
			spaces[i] = as
		}
		want := [2]Word{11, 44}
		run := func(c *Core, i int) {
			c.AS, c.PC, c.PKRU = spaces[i], 0x1000, mpk.AllowAllValue
			c.Halted, c.Regs[RBX] = false, 0
			c.Run(10)
			if c.Regs[RBX] != want[i] || !c.Halted || c.Fault != nil {
				t.Fatalf("mode %d: core %d in AS %d: rbx=%d halted=%v fault=%v, want rbx=%d",
					mode, c.ID, i, c.Regs[RBX], c.Halted, c.Fault, want[i])
			}
		}
		c0, c1 := m.Core(0), m.Core(1)
		run(c0, 0)
		run(c1, 1)
		run(c0, 1)
		run(c1, 0)
		f0, _, _ := c0.SuperblockStats()
		f1, _, _ := c1.SuperblockStats()
		if mode == Fused && (f0 != 1 || f1 != 1) {
			t.Fatalf("fills core 0 %d, core 1 %d; want one each, the second run in each AS a hit", f0, f1)
		}
		for r := 0; r < 3; r++ {
			run(c0, r%2)
			run(c1, (r+1)%2)
		}
		if g0, _, _ := c0.SuperblockStats(); g0 != f0 {
			t.Fatalf("moving between address spaces refilled: core 0 fills %d -> %d", f0, g0)
		}
		if g1, _, _ := c1.SuperblockStats(); g1 != f1 {
			t.Fatalf("moving between address spaces refilled: core 1 fills %d -> %d", f1, g1)
		}
	}
}

// TestSuperblockStoreSize pins the store's sizing: 64 entries per core
// that may share it, a power of two, capped at 512.
func TestSuperblockStoreSize(t *testing.T) {
	for cores, want := range map[int]int{0: 64, 1: 64, 2: 128, 3: 256, 4: 256, 5: 512, 8: 512, 128: 512} {
		if got := sbStoreSize(cores); got != want {
			t.Errorf("sbStoreSize(%d) = %d, want %d", cores, got, want)
		}
	}
}

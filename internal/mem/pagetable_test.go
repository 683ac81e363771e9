package mem

import (
	"testing"

	"vessel/internal/mpk"
)

// TestPageTableDropsEmptyLeaves unmaps a leaf-crossing range piecewise:
// a leaf leaves the directory, and the leaf cache, only when its last page
// goes, and a fresh Map there builds a new leaf.
func TestPageTableDropsEmptyLeaves(t *testing.T) {
	as := newAS(t)
	base := Addr(60 * PageSize) // pages 60..69 span leaves 0 and 1
	if err := as.MapRange(base, 10*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	if len(as.dir) != 2 || as.NumPages() != 10 {
		t.Fatalf("%d leaves, %d pages; want 2, 10", len(as.dir), as.NumPages())
	}
	as.Unmap(base, 3*PageSize) // pages 60..62: leaf 0 keeps page 63
	if len(as.dir) != 2 || as.NumPages() != 7 {
		t.Fatalf("%d leaves, %d pages; want 2, 7", len(as.dir), as.NumPages())
	}
	as.Unmap(base+3*PageSize, PageSize) // page 63: leaf 0 is empty
	if len(as.dir) != 1 || as.dir[0].key != 2 {
		t.Fatalf("directory %v, want only leaf 1", as.dir)
	}
	if as.leafOf(0) != nil || as.Mapped(base) {
		t.Fatal("the dropped leaf is still reachable")
	}
	if err := as.Map(base, as.phys.AllocFrame(), PermRW, 3); err != nil {
		t.Fatal(err)
	}
	if pte, ok := as.Lookup(base); !ok || pte.PKey != 3 || len(as.dir) != 2 {
		t.Fatalf("remap: %+v, %v with %d leaves", pte, ok, len(as.dir))
	}
}

// TestTLBFlushClearsEveryFill fills every TLB entry, remaps all the
// pages, and reads them again: the flush the remap causes clears only the
// entries it recorded as filled, so each must have been recorded, by
// CheckVia and by the 8-byte accessors alike.
func TestTLBFlushClearsEveryFill(t *testing.T) {
	phys := NewPhysical()
	as, donor := NewAddressSpace(phys), NewAddressSpace(phys)
	for _, s := range []*AddressSpace{as, donor} {
		if err := s.MapRange(0x40000, TLBSize*PageSize, PermRW, 0); err != nil {
			t.Fatal(err)
		}
	}
	var tlb TLB
	var f Fault
	for i := 0; i < TLBSize; i++ {
		a := Addr(0x40000 + i*PageSize)
		if i%2 == 0 {
			as.CheckVia(&tlb, a, mpk.AccessRead, mpk.AllowAllValue, &f)
		} else {
			as.ReadVia8(&tlb, a, mpk.AllowAllValue, &f)
		}
	}
	if err := as.ShareRange(donor, 0x40000, TLBSize*PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < TLBSize; i++ {
		a := Addr(0x40000 + i*PageSize)
		want, _ := donor.Lookup(a)
		if got := as.CheckVia(&tlb, a, mpk.AccessRead, mpk.AllowAllValue, &f); got != want.Frame {
			t.Fatalf("page %d after the remap: frame %d, want %d", i, got.ID, want.Frame.ID)
		}
	}
	if tlb.Misses != 2*TLBSize {
		t.Fatalf("%d misses, want %d", tlb.Misses, 2*TLBSize)
	}
}

// TestCheckViaMissAllocatesNothing: a TLB miss walks the page table, and
// the walk must not allocate.
func TestCheckViaMissAllocatesNothing(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x3c000, 10*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	var tlb TLB
	var f Fault
	misses := tlb.Misses
	allocs := testing.AllocsPerRun(100, func() {
		tlb.Flush()
		if as.CheckVia(&tlb, 0x41008, mpk.AccessRead, mpk.AllowAllValue, &f) == nil {
			t.Fatal(&f)
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckVia on a TLB miss allocates %v/op, want 0", allocs)
	}
	if tlb.Misses-misses < 100 {
		t.Fatalf("only %d of the measured accesses missed", tlb.Misses-misses)
	}
}

// TestSetPKeyAllocatesNothing re-keys a mapped, leaf-crossing range.
func TestSetPKeyAllocatesNothing(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x3c000, 70*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	key := mpk.PKey(1)
	allocs := testing.AllocsPerRun(100, func() {
		key = key%13 + 1
		if err := as.SetPKey(0x3c000, 70*PageSize, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SetPKey allocates %v/op, want 0", allocs)
	}
}

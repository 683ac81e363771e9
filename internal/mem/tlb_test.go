package mem

import (
	"bytes"
	"testing"

	"vessel/internal/mpk"
)

// fixture3Pages maps three consecutive pages tagged with pkeys 1, 2, 3 —
// the cross-page boundary fixture for the batched bulk accessors.
func fixture3Pages(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace(NewPhysical())
	for i, key := range []mpk.PKey{1, 2, 3} {
		base := Addr(0x1000 + i*PageSize)
		if err := as.MapRange(base, PageSize, PermRW, key); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// TestBulkCrossPage drives ReadBytes/WriteBytes across three pages with
// differing pkeys and checks the fault fires on the exact failing page,
// at the first byte the copy would have touched there.
func TestBulkCrossPage(t *testing.T) {
	as := fixture3Pages(t)
	all := mpk.AllowAllValue

	// A write spanning all three pages, starting mid-page.
	start := Addr(0x1000 + PageSize/2)
	span := 2*PageSize + 100
	data := make([]byte, span)
	for i := range data {
		data[i] = byte(i)
	}
	if f := as.WriteBytes(start, data, all); f != nil {
		t.Fatal(f)
	}
	got, f := as.ReadBytes(start, span, all)
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}

	// Deny only the middle page (pkey 2): the fault must land on the
	// first byte of page 2 — exactly where a per-byte walk stops.
	noMid := mpk.AllowAllValue.WithAccess(2, false, false)
	_, f = as.ReadBytes(start, span, noMid)
	if f == nil || f.Kind != FaultPKU || f.Addr != 0x2000 {
		t.Fatalf("read fault = %v, want pkey fault at 0x2000", f)
	}
	if f = as.WriteBytes(start, data, noMid); f == nil || f.Kind != FaultPKU || f.Addr != 0x2000 {
		t.Fatalf("write fault = %v, want pkey fault at 0x2000", f)
	}

	// Deny only the last page: the first half-page and the middle page
	// were already written when the fault fired (partial writes up to
	// the failing page stay visible — documented on WriteBytes).
	if f := as.WriteBytes(start, data, all); f != nil {
		t.Fatal(f)
	}
	noLast := mpk.AllowAllValue.WithAccess(3, false, false)
	zero := make([]byte, span)
	if f = as.WriteBytes(start, zero, noLast); f == nil || f.Kind != FaultPKU || f.Addr != 0x3000 {
		t.Fatalf("write fault = %v, want pkey fault at 0x3000", f)
	}
	before, f := as.ReadBytes(start, int(0x3000-start), all)
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(before, zero[:len(before)]) {
		t.Fatal("pages before the failing page must hold the partial write")
	}
	after, f := as.ReadBytes(0x3000, 100, all)
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(after, data[len(before):len(before)+100]) {
		t.Fatal("the failing page must be untouched")
	}
}

func TestReadCString(t *testing.T) {
	as := fixture3Pages(t)
	all := mpk.AllowAllValue

	// A string crossing the page-1/page-2 boundary.
	start := Addr(0x2000 - 3)
	if f := as.WriteBytes(start, []byte("hello\x00"), all); f != nil {
		t.Fatal(f)
	}
	s, f := as.ReadCString(start, 64, all)
	if f != nil || s != "hello" {
		t.Fatalf("got %q, %v", s, f)
	}

	// The NUL sits before page 2: a PKRU that denies page 2 must not
	// matter when the scan terminates on page 1.
	noMid := mpk.AllowAllValue.WithAccess(2, false, false)
	if f := as.WriteBytes(0x1ff0, []byte("hi\x00"), all); f != nil {
		t.Fatal(f)
	}
	if s, f := as.ReadCString(0x1ff0, 64, noMid); f != nil || s != "hi" {
		t.Fatalf("got %q, %v (pages past the NUL must never be checked)", s, f)
	}

	// Unterminated run into a denied page faults at that page's start.
	if f := as.WriteBytes(0x1ff8, bytes.Repeat([]byte{'x'}, 8), all); f != nil {
		t.Fatal(f)
	}
	if _, f := as.ReadCString(0x1ff8, 64, noMid); f == nil || f.Kind != FaultPKU || f.Addr != 0x2000 {
		t.Fatalf("fault = %v, want pkey fault at 0x2000", f)
	}

	// No NUL within max: the full run comes back.
	if s, f := as.ReadCString(0x1ff8, 6, all); f != nil || s != "xxxxxx" {
		t.Fatalf("got %q, %v", s, f)
	}
}

// tlbAS builds an address space with a warm TLB over one RW page at 0x1000
// (pkey 1) backed by frame f0, plus a donor space for ShareRange remaps.
func tlbFixture(t *testing.T) (as, donor *AddressSpace, tlb *TLB) {
	t.Helper()
	phys := NewPhysical()
	as = NewAddressSpace(phys)
	if err := as.MapRange(0x1000, PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	donor = NewAddressSpace(phys)
	if err := donor.MapRange(0x1000, PageSize, PermRW, 2); err != nil {
		t.Fatal(err)
	}
	tlb = &TLB{}
	var f Fault
	if _, ok := as.ReadVia(tlb, 0x1000, 8, mpk.AllowAllValue, &f); !ok {
		t.Fatalf("warming read: %v", &f)
	}
	if tlb.Misses != 1 {
		t.Fatalf("warming read should miss once, got %d", tlb.Misses)
	}
	tlb.Flushes = 0 // discard the initial binding flush
	return as, donor, tlb
}

// TestTLBCoherence is the table-driven coherence check: each mutation runs
// against a warm TLB, and the very next access through that TLB must
// observe the post-mutation state.
func TestTLBCoherence(t *testing.T) {
	all := mpk.AllowAllValue
	cases := []struct {
		name   string
		mutate func(t *testing.T, as, donor *AddressSpace)
		verify func(t *testing.T, as *AddressSpace, tlb *TLB)
	}{
		{
			name:   "unmap",
			mutate: func(t *testing.T, as, _ *AddressSpace) { as.Unmap(0x1000, PageSize) },
			verify: func(t *testing.T, as *AddressSpace, tlb *TLB) {
				var f Fault
				if _, ok := as.ReadVia(tlb, 0x1000, 8, all, &f); ok || f.Kind != FaultNotMapped {
					t.Fatalf("read after Unmap: ok=%v fault=%v", ok, &f)
				}
			},
		},
		{
			name: "protect",
			mutate: func(t *testing.T, as, _ *AddressSpace) {
				if err := as.Protect(0x1000, PageSize, PermRead); err != nil {
					t.Fatal(err)
				}
			},
			verify: func(t *testing.T, as *AddressSpace, tlb *TLB) {
				var f Fault
				if ok := as.WriteVia(tlb, 0x1000, 8, 1, all, &f); ok || f.Kind != FaultPerm {
					t.Fatalf("write after Protect(r--): ok=%v fault=%v", ok, &f)
				}
			},
		},
		{
			name: "setpkey",
			mutate: func(t *testing.T, as, _ *AddressSpace) {
				if err := as.SetPKey(0x1000, PageSize, 5); err != nil {
					t.Fatal(err)
				}
			},
			verify: func(t *testing.T, as *AddressSpace, tlb *TLB) {
				no5 := all.WithAccess(5, false, false)
				var f Fault
				if _, ok := as.ReadVia(tlb, 0x1000, 8, no5, &f); ok || f.Kind != FaultPKU {
					t.Fatalf("read after SetPKey(5) under deny-5: ok=%v fault=%v", ok, &f)
				}
			},
		},
		{
			name: "shareRange-remap",
			mutate: func(t *testing.T, as, donor *AddressSpace) {
				// Remap 0x1000 to the donor's (different) frame.
				var f Fault
				tlb := &TLB{}
				if ok := donor.WriteVia(tlb, 0x1000, 8, 0x5a5a, all, &f); !ok {
					t.Fatal(&f)
				}
				if err := as.ShareRange(donor, 0x1000, PageSize); err != nil {
					t.Fatal(err)
				}
			},
			verify: func(t *testing.T, as *AddressSpace, tlb *TLB) {
				var f Fault
				v, ok := as.ReadVia(tlb, 0x1000, 8, all, &f)
				if !ok {
					t.Fatal(&f)
				}
				if v != 0x5a5a {
					t.Fatalf("read %#x through warm TLB, want the donor frame's 0x5a5a", v)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as, donor, tlb := tlbFixture(t)
			tc.mutate(t, as, donor)
			tc.verify(t, as, tlb)
		})
	}
}

// TestTLBStaysWarm pins the two reuse properties the fast path depends on:
// repeated access is a hit, and PKRU changes do not flush (WRPKRU does not
// flush the hardware TLB either — the check happens after translation).
func TestTLBStaysWarm(t *testing.T) {
	as, _, tlb := tlbFixture(t)
	var f Fault
	for i := 0; i < 10; i++ {
		if _, ok := as.ReadVia(tlb, 0x1008, 8, mpk.AllowAllValue, &f); !ok {
			t.Fatal(&f)
		}
	}
	if tlb.Hits != 10 || tlb.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 10/1", tlb.Hits, tlb.Misses)
	}
	// A protection switch must not invalidate the translation, but must
	// still be enforced on the cached entry.
	deny := mpk.AllowAllValue.WithAccess(1, true, false)
	if ok := as.WriteVia(tlb, 0x1008, 8, 1, deny, &f); ok || f.Kind != FaultPKU {
		t.Fatalf("write under read-only PKRU: ok=%v fault=%v", ok, &f)
	}
	if tlb.Flushes != 0 {
		t.Fatalf("PKRU change flushed the TLB (%d flushes)", tlb.Flushes)
	}
	// Switching address spaces flushes.
	other := NewAddressSpace(NewPhysical())
	if err := other.MapRange(0x1000, PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := other.ReadVia(tlb, 0x1000, 8, mpk.AllowAllValue, &f); !ok {
		t.Fatal(&f)
	}
	if tlb.Flushes != 1 {
		t.Fatalf("address-space switch must flush, got %d flushes", tlb.Flushes)
	}
}

// TestViaMatchesCheck cross-validates the TLB path against the map-walk
// path over a randomized pattern of accesses and mutations.
func TestViaMatchesCheck(t *testing.T) {
	as := fixture3Pages(t)
	tlb := &TLB{}
	pkrus := []mpk.PKRU{
		mpk.AllowAllValue,
		mpk.AllowAllValue.WithAccess(2, false, false),
		mpk.AllowAllValue.WithAccess(3, true, false),
		mpk.AllowNoneValue,
	}
	addrs := []Addr{0x1000, 0x1ff8, 0x2000, 0x2800, 0x3ff8, 0x5000}
	step := 0
	for round := 0; round < 4; round++ {
		for _, pkru := range pkrus {
			for _, a := range addrs {
				for _, kind := range []mpk.AccessKind{mpk.AccessRead, mpk.AccessWrite, mpk.AccessExec} {
					var f Fault
					frame := as.CheckVia(tlb, a, kind, pkru, &f)
					wantFrame, wantFault := as.Check(a, kind, pkru)
					if (frame == nil) != (wantFault != nil) || frame != wantFrame {
						t.Fatalf("CheckVia(%#x,%v,%v) diverged from Check", uint64(a), kind, pkru)
					}
					if frame == nil && (f.Kind != wantFault.Kind || f.Addr != wantFault.Addr || f.Op != wantFault.Op) {
						t.Fatalf("fault %v != %v", &f, wantFault)
					}
				}
			}
			// Interleave mutations to churn generations.
			switch step++; step % 3 {
			case 0:
				if err := as.Protect(0x2000, PageSize, PermRW); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := as.SetPKey(0x3000, PageSize, mpk.PKey(step%4+1)); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := as.Protect(0x2000, PageSize, PermRead); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRetagLeavesTLBWarm re-tags one page under a warm TLB, as a
// virtual-key eviction or refill does: the TLB must not flush, the other
// pages must still hit, and the re-tagged page must hit too yet obey its
// new key — faulting under a PKRU that denies it and passing under one
// that grants it — because the entry reads the key through its PTE.
func TestRetagLeavesTLBWarm(t *testing.T) {
	as := fixture3Pages(t) // pages 0x1000, 0x2000, 0x3000 on keys 1, 2, 3
	tlb := &TLB{}
	all := mpk.AllowAllValue
	var f Fault
	pages := []Addr{0x1000, 0x2000, 0x3000}
	for _, a := range pages {
		if _, ok := as.ReadVia(tlb, a, 8, all, &f); !ok {
			t.Fatalf("warming read at %#x: %v", uint64(a), &f)
		}
	}
	flushes, misses := tlb.Flushes, tlb.Misses

	if err := as.SetPKey(0x2000, PageSize, 5); err != nil {
		t.Fatal(err)
	}
	for _, a := range []Addr{0x1000, 0x3000} {
		if _, ok := as.ReadVia(tlb, a, 8, all, &f); !ok {
			t.Fatalf("read at %#x after the re-tag: %v", uint64(a), &f)
		}
	}
	deny5 := all.WithAccess(5, false, false)
	if _, ok := as.ReadVia(tlb, 0x2008, 8, deny5, &f); ok || f.Kind != FaultPKU || f.Addr != 0x2008 {
		t.Fatalf("read of the re-tagged page under deny-5: ok=%v fault=%v", ok, &f)
	}
	if ok := as.WriteVia8(tlb, 0x2008, 1, deny5, &f); ok || f.Kind != FaultPKU {
		t.Fatalf("write of the re-tagged page under deny-5: ok=%v fault=%v", ok, &f)
	}
	// Only key 5 granted: the page's old key 2 is denied, so a stale
	// cached key would fault here.
	only5 := mpk.AllowNoneValue.WithAccess(5, true, true)
	if ok := as.WriteVia8(tlb, 0x2008, 7, only5, &f); !ok {
		t.Fatalf("write of the re-tagged page under only-5: %v", &f)
	}
	if v, ok := as.ReadVia8(tlb, 0x2008, only5, &f); !ok || v != 7 {
		t.Fatalf("read of the re-tagged page under only-5: %d, %v", v, &f)
	}
	if tlb.Flushes != flushes {
		t.Fatalf("SetPKey flushed the TLB: %d flushes, was %d", tlb.Flushes, flushes)
	}
	if tlb.Misses != misses {
		t.Fatalf("accesses after SetPKey missed %d times", tlb.Misses-misses)
	}
}

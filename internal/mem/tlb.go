package mem

import (
	"encoding/binary"
	"math/bits"

	"vessel/internal/mpk"
)

// TLBSize is the number of direct-mapped entries in a software TLB. Must be
// a power of two: entries are indexed by the low bits of the page number.
const TLBSize = 64

// tlbEntry caches one translation. tag is the page number + 1 so the zero
// value is never a hit. frame is pte.Frame, copied to save the data path a
// load; the permission bits and key are read through pte on every access.
type tlbEntry struct {
	tag   uint64
	frame *Frame
	pte   *PTE
}

// TLB is a small direct-mapped software translation cache from page number
// to the page's PTE — the per-core structure that lets the simulator
// amortise page-table walks the way hardware does.
//
// Coherence is by generation: the TLB remembers which AddressSpace it was
// filled from and at which Generation. Any mutation that can change a
// page's frame or permissions, or drop its PTE (Map, Unmap, Protect,
// ShareRange), bumps the generation, so the next access through the TLB
// flushes it wholesale — the simulated analogue of a TLB shootdown.
// Rebinding to a different AddressSpace (an address-space switch) likewise
// flushes. SetPKey needs no flush: it rewrites the key inside the PTE an
// entry points at, and leaves never move while mapped, so a virtual-key
// re-tag keeps every core's TLB warm and the next access sees the new key.
//
// The TLB is semantically invisible: only the translation is cached, and
// the page's bits are read from the live PTE. PKRU is still consulted on
// every access, after translation — mirroring real MPK, where WRPKRU does
// not flush the hardware TLB and protection switches leave cached
// translations valid.
//
// A TLB is owned by exactly one simulated core and, like the rest of the
// simulation, is not safe for concurrent use.
type TLB struct {
	as   *AddressSpace
	gen  uint64
	ents [TLBSize]tlbEntry
	// filled has bit i set when ents[i] was filled since the last flush,
	// so a flush clears only those: between two mapping changes a core
	// fills a handful of the 64 entries.
	filled uint64

	// Hits, Misses, and Flushes count lookups for benchmarks and tests.
	// They are host-side observability, never part of simulated results.
	Hits, Misses, Flushes uint64
}

// TLB.filled holds one bit per entry: this fails to compile if TLBSize
// exceeds 64.
const _ = uint64(1) << (64 - TLBSize)

// Flush discards every cached translation.
func (t *TLB) Flush() {
	for m := t.filled; m != 0; m &= m - 1 {
		t.ents[bits.TrailingZeros64(m)].tag = 0
	}
	t.filled = 0
	t.Flushes++
}

// sync flushes and rebinds when the TLB is stale for as.
func (t *TLB) sync(as *AddressSpace) {
	if t.as != as || t.gen != as.gen {
		t.Flush()
		t.as, t.gen = as, as.gen
	}
}

// CheckVia performs the same PTE∧PKRU dual check as Check, but resolves the
// translation through the TLB and reports faults by filling *f (returning
// nil) instead of allocating — keeping the non-faulting hot path free of
// allocations. Only successful translations are cached; the permission and
// PKRU checks run on every access against the cached page bits.
func (as *AddressSpace) CheckVia(t *TLB, vaddr Addr, kind mpk.AccessKind, pkru mpk.PKRU, f *Fault) *Frame {
	t.sync(as)
	page := uint64(vaddr) / PageSize
	e := &t.ents[page&(TLBSize-1)]
	if e.tag != page+1 {
		t.Misses++
		pte := as.pte(page)
		if pte == nil {
			*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: kind}
			return nil
		}
		e.tag, e.frame, e.pte = page+1, pte.Frame, pte
		t.filled |= 1 << (page & (TLBSize - 1))
	} else {
		t.Hits++
	}
	if !e.pte.Perm.Allows(kind) {
		*f = Fault{Addr: vaddr, Kind: FaultPerm, Op: kind}
		return nil
	}
	if !pkru.Check(e.pte.PKey, kind) {
		*f = Fault{Addr: vaddr, Kind: FaultPKU, Op: kind}
		return nil
	}
	return e.frame
}

// ReadVia is Read through a TLB: a checked, page-local load of size bytes
// (≤8) that fills *f and reports false on fault instead of allocating.
func (as *AddressSpace) ReadVia(t *TLB, vaddr Addr, size int, pkru mpk.PKRU, f *Fault) (uint64, bool) {
	if size <= 0 || size > maxAccessSize || vaddr.Offset()+uint64(size) > PageSize {
		*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessRead}
		return 0, false
	}
	frame := as.CheckVia(t, vaddr, mpk.AccessRead, pkru, f)
	if frame == nil {
		return 0, false
	}
	return readWord(frame, vaddr.Offset(), size), true
}

// WriteVia is Write through a TLB; see ReadVia.
func (as *AddressSpace) WriteVia(t *TLB, vaddr Addr, size int, value uint64, pkru mpk.PKRU, f *Fault) bool {
	if size <= 0 || size > maxAccessSize || vaddr.Offset()+uint64(size) > PageSize {
		*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessWrite}
		return false
	}
	frame := as.CheckVia(t, vaddr, mpk.AccessWrite, pkru, f)
	if frame == nil {
		return false
	}
	writeWord(frame, vaddr.Offset(), size, value)
	return true
}

// fill loads the PTE covering page into its TLB slot, reporting false
// and the fault when the page is unmapped — the shared miss path of the
// width-specialized accessors below.
func (t *TLB) fill(as *AddressSpace, page uint64, vaddr Addr, kind mpk.AccessKind, f *Fault) bool {
	t.Misses++
	pte := as.pte(page)
	if pte == nil {
		*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: kind}
		return false
	}
	e := &t.ents[page&(TLBSize-1)]
	e.tag, e.frame, e.pte = page+1, pte.Frame, pte
	t.filled |= 1 << (page & (TLBSize - 1))
	return true
}

// ReadVia8 is ReadVia specialized to the 8-byte word loads the
// instruction VM issues — the superblock executor's data path. The
// probe, fault kinds, fault ordering, and partial semantics are exactly
// ReadVia(t, vaddr, 8, ...)'s; the specialization only flattens the
// size switches and the AccessKind dispatch out of the hot loop.
func (as *AddressSpace) ReadVia8(t *TLB, vaddr Addr, pkru mpk.PKRU, f *Fault) (uint64, bool) {
	off := vaddr.Offset()
	if off > PageSize-8 {
		*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessRead}
		return 0, false
	}
	if t.as != as || t.gen != as.gen {
		t.Flush()
		t.as, t.gen = as, as.gen
	}
	page := uint64(vaddr) / PageSize
	e := &t.ents[page&(TLBSize-1)]
	if e.tag != page+1 {
		if !t.fill(as, page, vaddr, mpk.AccessRead, f) {
			return 0, false
		}
	} else {
		t.Hits++
	}
	if e.pte.Perm&PermRead == 0 {
		*f = Fault{Addr: vaddr, Kind: FaultPerm, Op: mpk.AccessRead}
		return 0, false
	}
	if !pkru.Check(e.pte.PKey, mpk.AccessRead) {
		*f = Fault{Addr: vaddr, Kind: FaultPKU, Op: mpk.AccessRead}
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.frame.Data[off:]), true
}

// WriteVia8 is ReadVia8's store counterpart: WriteVia(t, vaddr, 8, ...)
// with the width and access kind specialized away.
func (as *AddressSpace) WriteVia8(t *TLB, vaddr Addr, value uint64, pkru mpk.PKRU, f *Fault) bool {
	off := vaddr.Offset()
	if off > PageSize-8 {
		*f = Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessWrite}
		return false
	}
	if t.as != as || t.gen != as.gen {
		t.Flush()
		t.as, t.gen = as, as.gen
	}
	page := uint64(vaddr) / PageSize
	e := &t.ents[page&(TLBSize-1)]
	if e.tag != page+1 {
		if !t.fill(as, page, vaddr, mpk.AccessWrite, f) {
			return false
		}
	} else {
		t.Hits++
	}
	if e.pte.Perm&PermWrite == 0 {
		*f = Fault{Addr: vaddr, Kind: FaultPerm, Op: mpk.AccessWrite}
		return false
	}
	if !pkru.Check(e.pte.PKey, mpk.AccessWrite) {
		*f = Fault{Addr: vaddr, Kind: FaultPKU, Op: mpk.AccessWrite}
		return false
	}
	binary.LittleEndian.PutUint64(e.frame.Data[off:], value)
	return true
}

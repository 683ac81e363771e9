package mem

import (
	"fmt"
	"testing"

	"vessel/internal/mpk"
)

// ptModel is the reference a fuzzed address space is checked against: a
// plain page map plus the generation counter.
type ptModel struct {
	pages map[uint64]PTE
	gen   uint64
}

// fuzzBases are the regions FuzzPageTable maps into: low memory, a run
// straddling a leaf boundary, the SMAS uProcess base, a far address, and
// the top of the address space, where a range wraps to page 0.
var fuzzBases = [...]Addr{0, 0x3c000, 0x1000_0000, 0x7f00_0000_0000, 0xffff_ffff_fffc_0000}

// FuzzPageTable runs random Map, MapRange, Unmap, Protect, SetPKey and
// ShareRange sequences over two address spaces against map models. After
// every operation it checks the error, the generation (bumped up front,
// so on error paths too, and never by SetPKey), NumPages, the directory holding exactly the
// non-empty leaves, the leaf cache holding only directory entries, and
// Lookup, Mapped, Check and CheckVia through a long-lived TLB at every
// mapped page and around the operation's range. Ops are decoded four
// bytes at a time: op, address, length, and a byte of perm/key/flag bits.
func FuzzPageTable(f *testing.F) {
	// A leaf-crossing range at page 60: map 10 pages, re-key them with a
	// partial length, Protect past the end (mid-range unmapped), share it
	// into the second address space, unmap a partial run.
	f.Add([]byte{1, 0x01, 10, 0x03, 4, 0x01, 10, 0x61, 3, 0x01, 12, 0x01, 0x85, 0x01, 10, 0, 2, 0x09, 3, 0x40})
	// A far range spanning three leaves; SetPKey and ShareRange run off
	// its end.
	f.Add([]byte{1, 0x03, 130, 0x0b, 4, 0x13, 140, 0x79, 2, 0x03, 70, 0x40, 0x85, 0x03, 130, 0})
	// A range that wraps from the top of the address space to page 0, an
	// unaligned Unmap, and a Map with a nil frame.
	f.Add([]byte{1, 0x04, 70, 0x03, 4, 0x04, 70, 0x58, 2, 0x04, 3, 0x80, 0, 0x03, 0, 0x20})
	// Unaligned Map and MapRange (rejected), then an unaligned SetPKey and
	// a Protect over mapped pages, and a Map over a mapped page.
	f.Add([]byte{0, 0x02, 0, 0x87, 1, 0x02, 2, 0x83, 1, 0x02, 2, 0x03, 4, 0x02, 2, 0x91, 3, 0x02, 1, 0x85, 0, 0x02, 0, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		phys := NewPhysical()
		ases := [2]*AddressSpace{NewAddressSpace(phys), NewAddressSpace(phys)}
		models := [2]*ptModel{{pages: map[uint64]PTE{}}, {pages: map[uint64]PTE{}}}
		var tlbs [2]TLB

		for i := 0; i+3 < len(data) && i < 4*32; i += 4 {
			op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
			which := int(op>>7) & 1
			as, m := ases[which], models[which]
			other, om := ases[1-which], models[1-which]

			vaddr := fuzzBases[int(a&7)%len(fuzzBases)] + Addr(a>>3)*PageSize
			if c&0x80 != 0 {
				vaddr += Addr(c&0x7f) * 8 // unaligned
			}
			length := uint64(b) * PageSize
			if c&0x40 != 0 && length > 0 {
				length -= PageSize / 2 // a partial last page
			}
			perm, key := Perm(c&7), mpk.PKey(c>>3&7)
			n := pagesIn(length)
			frames := phys.NumFrames()

			var err, want error
			switch op & 7 {
			case 0: // Map one page, with a nil frame when flag 0x20 is set
				var fr *Frame
				if c&0x20 == 0 {
					fr = phys.AllocFrame()
				}
				err = as.Map(vaddr, fr, perm, key)
				if !vaddr.PageAligned() || fr == nil {
					want = fmt.Errorf("rejected")
				} else {
					m.pages[vaddr.PageOf()] = PTE{Frame: fr, Perm: perm, PKey: key}
					m.gen++
				}
			case 1: // MapRange
				err = as.MapRange(vaddr, length, perm, key)
				if !vaddr.PageAligned() {
					want = fmt.Errorf("rejected")
					break
				}
				for j := 0; j < n; j++ {
					pte, ok := as.Lookup(vaddr + Addr(j*PageSize))
					if !ok || pte.Frame.ID != frames+j {
						t.Fatalf("MapRange page %d: got %+v, %v; want fresh frame %d", j, pte, ok, frames+j)
					}
					m.pages[(vaddr + Addr(j*PageSize)).PageOf()] = PTE{Frame: pte.Frame, Perm: perm, PKey: key}
				}
				m.gen += uint64(n)
			case 2: // Unmap
				as.Unmap(vaddr, length)
				for j := 0; j < n; j++ {
					delete(m.pages, (vaddr + Addr(j*PageSize)).PageOf())
				}
				m.gen++
			case 3: // Protect
				err = as.Protect(vaddr, length, perm)
				want = m.walk("Protect", vaddr, n, func(p *PTE) { p.Perm = perm })
				m.gen++
			case 4: // SetPKey
				err = as.SetPKey(vaddr, length, key)
				want = m.walk("SetPKey", vaddr, n, func(p *PTE) { p.PKey = key })
			default: // ShareRange from the other address space
				err = as.ShareRange(other, vaddr, length)
				m.gen++
				for j := 0; j < n; j++ {
					a := vaddr + Addr(j*PageSize)
					pte, ok := om.pages[a.PageOf()]
					if !ok {
						want = fmt.Errorf("mem: ShareRange: source page %#x not mapped", uint64(a))
						break
					}
					m.pages[a.PageOf()] = pte
				}
			}

			switch {
			case (err == nil) != (want == nil):
				t.Fatalf("op %d at %#x+%#x: err %v, want %v", op&7, uint64(vaddr), length, err, want)
			case err != nil && op&7 >= 3 && err.Error() != want.Error():
				t.Fatalf("op %d: err %q, want %q", op&7, err, want)
			}
			for w := range ases {
				probes := []Addr{vaddr - PageSize, vaddr + Addr(n*PageSize), vaddr + Addr(n*PageSize) + 1}
				for p := range models[w].pages {
					probes = append(probes, Addr(p*PageSize)+Addr(p%7)*8)
				}
				pkru := mpk.PKRU(uint32(c) * 0x01030507)
				checkAgainstModel(t, ases[w], models[w], &tlbs[w], probes, pkru)
			}
		}
	})
}

// walk applies fn to each of the n model pages from vaddr in order and
// returns the error the address space must report: the first unmapped
// page stops the walk, after earlier pages have changed.
func (m *ptModel) walk(op string, vaddr Addr, n int, fn func(*PTE)) error {
	for j := 0; j < n; j++ {
		a := vaddr + Addr(j*PageSize)
		pte, ok := m.pages[a.PageOf()]
		if !ok {
			return fmt.Errorf("mem: %s: page %#x not mapped", op, uint64(a))
		}
		fn(&pte)
		m.pages[a.PageOf()] = pte
	}
	return nil
}

// checkAgainstModel compares as with m: generation, page count,
// directory shape, the leaf cache, and every lookup path at each probe
// address.
func checkAgainstModel(t *testing.T, as *AddressSpace, m *ptModel, tlb *TLB, probes []Addr, pkru mpk.PKRU) {
	t.Helper()
	if as.Generation() != m.gen {
		t.Fatalf("generation %d, want %d", as.Generation(), m.gen)
	}
	if as.NumPages() != len(m.pages) {
		t.Fatalf("NumPages %d, model %d", as.NumPages(), len(m.pages))
	}
	leaves := map[uint64]bool{}
	for p := range m.pages {
		leaves[p>>leafBits] = true
	}
	if len(as.dir) != len(leaves) {
		t.Fatalf("directory holds %d leaves, model pages span %d", len(as.dir), len(leaves))
	}
	for i, r := range as.dir {
		if !leaves[r.key-1] || (i > 0 && as.dir[i-1].key >= r.key) {
			t.Fatalf("directory entry %d (leaf %#x) is empty or out of order", i, r.key-1)
		}
	}
	for _, set := range as.lc {
		for _, r := range set {
			if i, ok := as.find(r.key - 1); r.key != 0 && (!ok || as.dir[i].l != r.l) {
				t.Fatalf("leaf cache holds leaf %#x, which the directory does not", r.key-1)
			}
		}
	}
	for _, a := range probes {
		want, mapped := m.pages[a.PageOf()]
		got, ok := as.Lookup(a)
		if ok != mapped || got != want || as.Mapped(a) != mapped {
			t.Fatalf("Lookup(%#x) = %+v, %v; model %+v, %v", uint64(a), got, ok, want, mapped)
		}
		for _, kind := range []mpk.AccessKind{mpk.AccessRead, mpk.AccessWrite, mpk.AccessExec} {
			var wantF *Fault
			switch {
			case !mapped:
				wantF = &Fault{Addr: a, Kind: FaultNotMapped, Op: kind}
			case !want.Perm.Allows(kind):
				wantF = &Fault{Addr: a, Kind: FaultPerm, Op: kind}
			case !pkru.Check(want.PKey, kind):
				wantF = &Fault{Addr: a, Kind: FaultPKU, Op: kind}
			}
			fr, f := as.Check(a, kind, pkru)
			var viaF Fault
			via := as.CheckVia(tlb, a, kind, pkru, &viaF)
			if wantF == nil {
				if f != nil || fr != want.Frame || via != want.Frame {
					t.Fatalf("%s at %#x: Check (%v, %v), CheckVia (%v, %v); want frame %d",
						kind, uint64(a), fr, f, via, viaF, want.Frame.ID)
				}
				continue
			}
			if f == nil || *f != *wantF || via != nil || viaF != *wantF {
				t.Fatalf("%s at %#x: Check fault %v, CheckVia (%v, %v); want %v", kind, uint64(a), f, via, viaF, wantF)
			}
		}
	}
}

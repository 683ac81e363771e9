// Package mem models the memory subsystem underneath uProcess: physical
// frames, per-process page tables with permission bits and a 4-bit
// protection key per entry, and the dual PTE∧PKRU access check that Intel
// MPK performs (§2.3, §4.1).
//
// Virtual address spaces are two-level page tables of 64-entry leaves.
// Several address spaces can map the same physical frames — this is how
// the manager's SMAS is shared by every kProcess in a scheduling domain
// (§5.1).
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"vessel/internal/mpk"
)

// PageSize is the architectural page size.
const PageSize = 4096

// Addr is a simulated virtual address.
type Addr uint64

// PageOf returns the page number containing a.
func (a Addr) PageOf() uint64 { return uint64(a) / PageSize }

// Offset returns the offset of a within its page.
func (a Addr) Offset() uint64 { return uint64(a) % PageSize }

// PageAligned reports whether a is page aligned.
func (a Addr) PageAligned() bool { return uint64(a)%PageSize == 0 }

// Perm is a page-permission bit set.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// PermRW and friends are the common combinations.
const (
	PermNone Perm = 0
	PermRW        = PermRead | PermWrite
	PermRX        = PermRead | PermExec
	// PermXOnly is the executable-only permission the paper gives every
	// text segment: neither readable nor writable (§4.1).
	PermXOnly = PermExec
)

func (p Perm) String() string {
	b := []byte{'-', '-', '-'}
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Allows reports whether p permits the access kind.
func (p Perm) Allows(kind mpk.AccessKind) bool {
	switch kind {
	case mpk.AccessRead:
		return p&PermRead != 0
	case mpk.AccessWrite:
		return p&PermWrite != 0
	case mpk.AccessExec:
		return p&PermExec != 0
	}
	return false
}

// Frame is a physical page frame.
type Frame struct {
	ID   int
	Data [PageSize]byte
}

// Physical is the machine's physical memory: a growable set of frames.
type Physical struct {
	frames []*Frame
}

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical { return &Physical{} }

// AllocFrame allocates a zeroed frame.
func (p *Physical) AllocFrame() *Frame {
	f := &Frame{ID: len(p.frames)}
	p.frames = append(p.frames, f)
	return f
}

// NumFrames returns the number of allocated frames.
func (p *Physical) NumFrames() int { return len(p.frames) }

// PTE is a page-table entry: frame, permission bits, and protection key.
type PTE struct {
	Frame *Frame
	Perm  Perm
	PKey  mpk.PKey
}

// FaultKind classifies memory faults.
type FaultKind uint8

const (
	FaultNotMapped FaultKind = iota
	FaultPerm                // page permission bits deny the access
	FaultPKU                 // PKRU denies the access (SEGV_PKUERR)
)

func (k FaultKind) String() string {
	switch k {
	case FaultNotMapped:
		return "not-mapped"
	case FaultPerm:
		return "page-perm"
	case FaultPKU:
		return "pkey"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault describes a failed memory access. It satisfies error and is what a
// simulated core raises as SIGSEGV.
type Fault struct {
	Addr Addr
	Kind FaultKind
	Op   mpk.AccessKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault (%s) at %#x", f.Op, f.Kind, uint64(f.Addr))
}

// AddressSpace is a virtual→physical mapping with per-page permissions
// and protection keys, held in a two-level page table: a directory from
// leaf index to leaf, and leaves of leafSize PTEs each. A small leaf
// cache sits in front of the directory, so a walk that stays within
// recently used leaves does not search it.
type AddressSpace struct {
	// dir holds every leaf, sorted by key. Leaves are few (a uProcess
	// region is contiguous), so a cache miss bisects a short slice, and
	// only creating or dropping a leaf moves entries.
	dir []leafRef
	// lc caches directory entries, two ways per set; lcSet picks the set.
	// Way 0 holds the most recently filled entry.
	lc [leafCacheSets][2]leafRef
	// n counts mapped pages.
	n    int
	phys *Physical
	// gen counts the mutations that can change or drop a cached
	// translation: Map, Unmap, Protect, ShareRange. Software TLBs and
	// decoded-fetch caches tag their entries with the generation they were
	// filled under, so any stale entry self-invalidates on the next access
	// — the simulated analogue of the TLB shootdown the kernel performs on
	// real hardware. SetPKey does not bump it: a TLB reaches a page's key
	// through the PTE it cached, and no fetch consults the key. Data
	// writes through frames never bump it, and neither does WRPKRU: PKRU
	// is checked after translation, exactly as MPK leaves the hardware TLB
	// valid across protection switches.
	gen uint64
}

// leafBits is log2 of leafSize, the PTEs per page-table leaf: 64 PTEs of
// 16 bytes make a 1 KiB leaf, small enough that a sparse address space
// wastes little on partly filled leaves.
const (
	leafBits = 6
	leafSize = 1 << leafBits
)

// The leaf cache has 2^leafCacheBits sets of two ways: 16 entries.
const (
	leafCacheBits = 3
	leafCacheSets = 1 << leafCacheBits
)

// lcSet is the leaf-cache set of leaf index idx: the top bits of a
// Fibonacci hash. The low bits of the index would not do: every SMAS
// region base (text, pipe, runtime, uProcess data) is a multiple of 16
// leaves, so all of them would share one set and evict each other on
// every walk. Two ways per set absorb the collisions any fixed hash
// leaves.
func lcSet(idx uint64) uint64 { return idx * 0x9E3779B97F4A7C15 >> (64 - leafCacheBits) }

// leafRef names one leaf. key is the leaf index + 1, so a zero leafRef
// (an empty cache slot) never matches.
type leafRef struct {
	key uint64
	l   *leaf
}

// leaf is one page-table leaf. A PTE with a nil Frame is absent. A leaf
// is allocated once and never moves, so a TLB may hold a pointer to one of
// its PTEs until the next generation bump.
type leaf [leafSize]PTE

// NewAddressSpace returns an empty address space over the given physical
// memory.
func NewAddressSpace(phys *Physical) *AddressSpace {
	return &AddressSpace{phys: phys}
}

// leafOf returns the leaf holding leaf index idx, or nil if none exists.
func (as *AddressSpace) leafOf(idx uint64) *leaf {
	set := &as.lc[lcSet(idx)]
	switch idx + 1 {
	case set[0].key:
		return set[0].l
	case set[1].key:
		return set[1].l
	}
	return as.leafMiss(idx)
}

// leafMiss is leafOf past the cache: it searches the directory and, on a
// hit, fills the cache.
func (as *AddressSpace) leafMiss(idx uint64) *leaf {
	i, ok := as.find(idx)
	if !ok {
		return nil
	}
	as.cache(as.dir[i])
	return as.dir[i].l
}

// cache fills r into way 0 of its set, moving the entry there to way 1.
func (as *AddressSpace) cache(r leafRef) {
	set := &as.lc[lcSet(r.key-1)]
	set[1], set[0] = set[0], r
}

// find returns the position of leaf index idx in the directory, or where
// it would be inserted, and whether it is there.
func (as *AddressSpace) find(idx uint64) (int, bool) {
	return slices.BinarySearchFunc(as.dir, idx+1, func(r leafRef, key uint64) int { return cmp.Compare(r.key, key) })
}

// leafFor is leafOf that creates the leaf when it is missing.
func (as *AddressSpace) leafFor(idx uint64) *leaf {
	if l := as.leafOf(idx); l != nil {
		return l
	}
	r := leafRef{idx + 1, new(leaf)}
	i, _ := as.find(idx)
	as.dir = slices.Insert(as.dir, i, r)
	as.cache(r)
	return r.l
}

// pte returns the PTE for page, or nil when the page is not mapped. It
// repeats leafOf's cache probe so that a hit costs one call, not two.
func (as *AddressSpace) pte(page uint64) *PTE {
	idx := page >> leafBits
	set := &as.lc[lcSet(idx)]
	var l *leaf
	switch idx + 1 {
	case set[0].key:
		l = set[0].l
	case set[1].key:
		l = set[1].l
	default:
		if l = as.leafMiss(idx); l == nil {
			return nil
		}
	}
	if e := &l[page%leafSize]; e.Frame != nil {
		return e
	}
	return nil
}

// pagesIn is the number of pages an operation over length bytes covers.
func pagesIn(length uint64) int { return int((length + PageSize - 1) / PageSize) }

// span returns the run of the n pages starting at vaddr that lies within
// vaddr's leaf: the leaf index, the slot of vaddr's page in it, and the
// run's length. Range operations walk one span at a time.
func span(vaddr Addr, n int) (idx uint64, slot, run int) {
	page := vaddr.PageOf()
	slot = int(page % leafSize)
	return page >> leafBits, slot, min(n, leafSize-slot)
}

// Map installs a mapping for one page. vaddr must be page aligned.
func (as *AddressSpace) Map(vaddr Addr, frame *Frame, perm Perm, key mpk.PKey) error {
	if !vaddr.PageAligned() {
		return fmt.Errorf("mem: Map at unaligned address %#x", uint64(vaddr))
	}
	if frame == nil {
		return fmt.Errorf("mem: Map with nil frame")
	}
	page := vaddr.PageOf()
	e := &as.leafFor(page >> leafBits)[page%leafSize]
	if e.Frame == nil {
		as.n++
	}
	*e = PTE{Frame: frame, Perm: perm, PKey: key}
	as.gen++
	return nil
}

// Generation returns the address space's translation generation. It changes
// on every mutation that can invalidate a cached translation or fetch
// verdict — Map, Unmap, Protect, ShareRange — but not on SetPKey; see TLB.
func (as *AddressSpace) Generation() uint64 { return as.gen }

// MapRange allocates fresh frames and maps length bytes starting at vaddr.
func (as *AddressSpace) MapRange(vaddr Addr, length uint64, perm Perm, key mpk.PKey) error {
	if !vaddr.PageAligned() {
		return fmt.Errorf("mem: MapRange at unaligned address %#x", uint64(vaddr))
	}
	n := pagesIn(length)
	for i := 0; i < n; i++ {
		if err := as.Map(vaddr+Addr(i*PageSize), as.phys.AllocFrame(), perm, key); err != nil {
			return err
		}
	}
	return nil
}

// ShareRange maps the pages backing [vaddr, vaddr+length) in src into this
// address space at the same virtual addresses — the mechanism by which every
// kProcess in a scheduling domain attaches SMAS (§5.1). PTEs are copied by
// value: a later SetPKey or Protect on one address space leaves the other's
// tags alone.
func (as *AddressSpace) ShareRange(src *AddressSpace, vaddr Addr, length uint64) error {
	// Bumped up front: a mid-range failure leaves earlier pages remapped,
	// and those must still invalidate cached translations.
	as.gen++
	n := pagesIn(length)
	for i := 0; i < n; {
		a := vaddr + Addr(i*PageSize)
		idx, slot, run := span(a, n-i)
		from := src.leafOf(idx)
		var to *leaf
		for j := 0; j < run; j++ {
			if from == nil || from[slot+j].Frame == nil {
				return fmt.Errorf("mem: ShareRange: source page %#x not mapped", uint64(a+Addr(j*PageSize)))
			}
			if to == nil {
				to = as.leafFor(idx)
			}
			if to[slot+j].Frame == nil {
				as.n++
			}
			to[slot+j] = from[slot+j]
		}
		i += run
	}
	return nil
}

// Unmap removes mappings for [vaddr, vaddr+length). A leaf left empty is
// dropped from the table.
func (as *AddressSpace) Unmap(vaddr Addr, length uint64) {
	n := pagesIn(length)
	for i := 0; i < n; {
		idx, slot, run := span(vaddr+Addr(i*PageSize), n-i)
		i += run
		l := as.leafOf(idx)
		if l == nil {
			continue
		}
		for j := slot; j < slot+run; j++ {
			if l[j].Frame != nil {
				l[j] = PTE{}
				as.n--
			}
		}
		if *l == (leaf{}) {
			as.dropLeaf(idx)
		}
	}
	as.gen++
}

// dropLeaf removes leaf index idx from the directory and the cache.
func (as *AddressSpace) dropLeaf(idx uint64) {
	i, _ := as.find(idx)
	as.dir = slices.Delete(as.dir, i, i+1)
	set := &as.lc[lcSet(idx)]
	for w := range set {
		if set[w].key == idx+1 {
			set[w] = leafRef{}
		}
	}
}

// Protect changes the permission bits of the pages covering
// [vaddr, vaddr+length), mirroring mprotect().
func (as *AddressSpace) Protect(vaddr Addr, length uint64, perm Perm) error {
	as.gen++ // up front: a mid-range failure still mutated earlier pages
	return as.update("Protect", vaddr, length, func(e *PTE) { e.Perm = perm })
}

// SetPKey tags the pages covering [vaddr, vaddr+length) with a protection
// key, mirroring pkey_mprotect()'s key assignment. It leaves the generation
// alone: the key is rewritten in place in each leaf, where a TLB entry's
// PTE pointer reads it on the next access, and no fetch consults it — so a
// re-tag keeps every core's TLB, decoded-fetch cache and superblocks warm.
func (as *AddressSpace) SetPKey(vaddr Addr, length uint64, key mpk.PKey) error {
	return as.update("SetPKey", vaddr, length, func(e *PTE) { e.PKey = key })
}

// update applies fn to the PTE of each page covering [vaddr, vaddr+length)
// in order, one leaf at a time. The first unmapped page stops it with an
// error naming op; the pages before it stay changed.
func (as *AddressSpace) update(op string, vaddr Addr, length uint64, fn func(*PTE)) error {
	n := pagesIn(length)
	for i := 0; i < n; {
		a := vaddr + Addr(i*PageSize)
		idx, slot, run := span(a, n-i)
		l := as.leafOf(idx)
		for j := 0; j < run; j++ {
			if l == nil || l[slot+j].Frame == nil {
				return fmt.Errorf("mem: %s: page %#x not mapped", op, uint64(a+Addr(j*PageSize)))
			}
			fn(&l[slot+j])
		}
		i += run
	}
	return nil
}

// Lookup returns the PTE covering vaddr.
func (as *AddressSpace) Lookup(vaddr Addr) (PTE, bool) {
	if e := as.pte(vaddr.PageOf()); e != nil {
		return *e, true
	}
	return PTE{}, false
}

// Mapped reports whether vaddr is mapped.
func (as *AddressSpace) Mapped(vaddr Addr) bool { return as.pte(vaddr.PageOf()) != nil }

// Check performs the full architectural access check — PTE permission bits
// AND the PKRU register — and returns the frame on success. This mirrors
// the hardware behaviour the paper relies on: "MPK is supplementary to the
// existing page permission bits and both permissions will be checked during
// memory access" (§4.1).
func (as *AddressSpace) Check(vaddr Addr, kind mpk.AccessKind, pkru mpk.PKRU) (*Frame, *Fault) {
	pte := as.pte(vaddr.PageOf())
	if pte == nil {
		return nil, &Fault{Addr: vaddr, Kind: FaultNotMapped, Op: kind}
	}
	if !pte.Perm.Allows(kind) {
		return nil, &Fault{Addr: vaddr, Kind: FaultPerm, Op: kind}
	}
	if !pkru.Check(pte.PKey, kind) {
		return nil, &Fault{Addr: vaddr, Kind: FaultPKU, Op: kind}
	}
	return pte.Frame, nil
}

// maxAccessSize bounds single loads/stores to a machine word.
const maxAccessSize = 8

// Read performs a checked read of size bytes (≤8, must not cross a page
// boundary) at vaddr under the given PKRU.
func (as *AddressSpace) Read(vaddr Addr, size int, pkru mpk.PKRU) (uint64, *Fault) {
	if size <= 0 || size > maxAccessSize || vaddr.Offset()+uint64(size) > PageSize {
		return 0, &Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessRead}
	}
	frame, fault := as.Check(vaddr, mpk.AccessRead, pkru)
	if fault != nil {
		return 0, fault
	}
	return readWord(frame, vaddr.Offset(), size), nil
}

// readWord assembles a little-endian word of size bytes at off, which the
// caller has bounds-checked to be page-local.
func readWord(frame *Frame, off uint64, size int) uint64 {
	if size == 8 {
		return binary.LittleEndian.Uint64(frame.Data[off:])
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(frame.Data[off+uint64(i)]) << (8 * i)
	}
	return v
}

// writeWord is readWord's store counterpart.
func writeWord(frame *Frame, off uint64, size int, value uint64) {
	if size == 8 {
		binary.LittleEndian.PutUint64(frame.Data[off:], value)
		return
	}
	for i := 0; i < size; i++ {
		frame.Data[off+uint64(i)] = byte(value >> (8 * i))
	}
}

// Write performs a checked write of size bytes (≤8, page-local) at vaddr.
func (as *AddressSpace) Write(vaddr Addr, size int, value uint64, pkru mpk.PKRU) *Fault {
	if size <= 0 || size > maxAccessSize || vaddr.Offset()+uint64(size) > PageSize {
		return &Fault{Addr: vaddr, Kind: FaultNotMapped, Op: mpk.AccessWrite}
	}
	frame, fault := as.Check(vaddr, mpk.AccessWrite, pkru)
	if fault != nil {
		return fault
	}
	writeWord(frame, vaddr.Offset(), size, value)
	return nil
}

// ReadBytes copies length bytes starting at vaddr into a new slice, applying
// the access check once per page touched (permissions and protection keys
// are page-granular, so one Check covers the whole page run). Used by the
// loader and by privileged runtime code (with an all-access PKRU). A fault
// carries the address of the first byte the copy would have touched on the
// failing page — byte-identical to a per-byte walk.
func (as *AddressSpace) ReadBytes(vaddr Addr, length int, pkru mpk.PKRU) ([]byte, *Fault) {
	out := make([]byte, length)
	if fault := as.ReadBytesInto(vaddr, out, pkru); fault != nil {
		return nil, fault
	}
	return out, nil
}

// ReadBytesInto copies len(out) bytes starting at vaddr into out, with
// the same one-check-per-page batching and fault semantics as ReadBytes
// but no result allocation — the variant for hot callers (the
// syscall-layer buffer path, page-copy loops) that reuse a buffer. The
// non-faulting path performs zero allocations.
func (as *AddressSpace) ReadBytesInto(vaddr Addr, out []byte, pkru mpk.PKRU) *Fault {
	for done := 0; done < len(out); {
		a := vaddr + Addr(done)
		frame, fault := as.Check(a, mpk.AccessRead, pkru)
		if fault != nil {
			return fault
		}
		done += copy(out[done:], frame.Data[a.Offset():])
	}
	return nil
}

// WriteBytes copies data into memory starting at vaddr with one access check
// per page touched. On a fault, every page before the failing one has
// already been written and stays visible — the same partial-write behaviour
// as a byte-at-a-time copy, since checks can only fail at page boundaries.
// No guarantee is made about bytes on or after the failing page.
func (as *AddressSpace) WriteBytes(vaddr Addr, data []byte, pkru mpk.PKRU) *Fault {
	for done := 0; done < len(data); {
		a := vaddr + Addr(done)
		frame, fault := as.Check(a, mpk.AccessWrite, pkru)
		if fault != nil {
			return fault
		}
		done += copy(frame.Data[a.Offset():], data[done:])
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes starting at
// vaddr, checking access once per page actually touched: the scan stops at
// the first NUL, and pages beyond it are never checked — exactly where a
// byte-at-a-time reader would have stopped. The terminator is not included;
// max bytes without a NUL returns the full run.
func (as *AddressSpace) ReadCString(vaddr Addr, max int, pkru mpk.PKRU) (string, *Fault) {
	var buf []byte
	for scanned := 0; scanned < max; {
		a := vaddr + Addr(scanned)
		frame, fault := as.Check(a, mpk.AccessRead, pkru)
		if fault != nil {
			return "", fault
		}
		off := int(a.Offset())
		limit := PageSize - off
		if rem := max - scanned; limit > rem {
			limit = rem
		}
		chunk := frame.Data[off : off+limit]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return string(append(buf, chunk[:i]...)), nil
		}
		buf = append(buf, chunk...)
		scanned += limit
	}
	return string(buf), nil
}

// NumPages returns the number of mapped pages.
func (as *AddressSpace) NumPages() int { return as.n }

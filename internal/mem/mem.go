// Package mem models the memory subsystem underneath uProcess: physical
// frames, per-process page tables with permission bits and a 4-bit
// protection key per entry, and the dual PTE∧PKRU access check that Intel
// MPK performs (§2.3, §4.1).
//
// Virtual address spaces are sparse page maps. Several address spaces can
// map the same physical frames — this is how the manager's SMAS is shared
// by every kProcess in a scheduling domain (§5.1).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
	PermRWX       = PermRead | PermWrite | PermExec
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

// AllocFrames allocates n contiguous zeroed frames.
func (p *Physical) AllocFrames(n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = p.AllocFrame()
	}
	return out
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

// AddressSpace is a sparse virtual→physical mapping with per-page
// permissions and protection keys.
type AddressSpace struct {
	pages map[uint64]PTE
	phys  *Physical
	// gen counts translation-affecting mutations (Map, Unmap, Protect,
	// SetPKey, ShareRange). Software TLBs tag their entries with the
	// generation they were filled under, so any stale translation
	// self-invalidates on the next access — the simulated analogue of the
	// TLB shootdown the kernel performs on real hardware. Data writes
	// through frames never bump it, and neither does WRPKRU: PKRU is
	// checked after translation, exactly as MPK leaves the hardware TLB
	// valid across protection switches.
	gen uint64
	// execGen counts the subset of those mutations that can change an
	// instruction fetch's result: all but SetPKey, since PKRU never
	// mediates a fetch (mpk.PKRU.Check passes AccessExec). Decoded-fetch
	// caches tag on it, so virtual-key re-tags leave them warm.
	execGen uint64
}

// NewAddressSpace returns an empty address space over the given physical
// memory.
func NewAddressSpace(phys *Physical) *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]PTE), phys: phys}
}

// Map installs a mapping for one page. vaddr must be page aligned.
func (as *AddressSpace) Map(vaddr Addr, frame *Frame, perm Perm, key mpk.PKey) error {
	if !vaddr.PageAligned() {
		return fmt.Errorf("mem: Map at unaligned address %#x", uint64(vaddr))
	}
	if frame == nil {
		return fmt.Errorf("mem: Map with nil frame")
	}
	as.pages[vaddr.PageOf()] = PTE{Frame: frame, Perm: perm, PKey: key}
	as.gen++
	as.execGen++
	return nil
}

// Generation returns the address space's translation generation. It changes
// on every mutation that can invalidate a cached translation; see TLB.
func (as *AddressSpace) Generation() uint64 { return as.gen }

// ExecGeneration returns the address space's exec generation. It changes
// on every mutation that can change an instruction fetch's outcome — Map,
// Unmap, Protect, ShareRange — but not on SetPKey, since protection keys
// never mediate fetches.
func (as *AddressSpace) ExecGeneration() uint64 { return as.execGen }

// MapRange allocates fresh frames and maps length bytes starting at vaddr.
func (as *AddressSpace) MapRange(vaddr Addr, length uint64, perm Perm, key mpk.PKey) error {
	if !vaddr.PageAligned() {
		return fmt.Errorf("mem: MapRange at unaligned address %#x", uint64(vaddr))
	}
	n := int((length + PageSize - 1) / PageSize)
	for i := 0; i < n; i++ {
		if err := as.Map(vaddr+Addr(i*PageSize), as.phys.AllocFrame(), perm, key); err != nil {
			return err
		}
	}
	return nil
}

// ShareRange maps the pages backing [vaddr, vaddr+length) in src into this
// address space at the same virtual addresses — the mechanism by which every
// kProcess in a scheduling domain attaches SMAS (§5.1).
func (as *AddressSpace) ShareRange(src *AddressSpace, vaddr Addr, length uint64) error {
	// Bumped up front: a mid-range failure leaves earlier pages remapped,
	// and those must still invalidate cached translations.
	as.gen++
	as.execGen++
	n := int((length + PageSize - 1) / PageSize)
	for i := 0; i < n; i++ {
		a := vaddr + Addr(i*PageSize)
		pte, ok := src.pages[a.PageOf()]
		if !ok {
			return fmt.Errorf("mem: ShareRange: source page %#x not mapped", uint64(a))
		}
		as.pages[a.PageOf()] = pte
	}
	return nil
}

// Unmap removes mappings for [vaddr, vaddr+length).
func (as *AddressSpace) Unmap(vaddr Addr, length uint64) {
	n := int((length + PageSize - 1) / PageSize)
	for i := 0; i < n; i++ {
		delete(as.pages, (vaddr + Addr(i*PageSize)).PageOf())
	}
	as.gen++
	as.execGen++
}

// Protect changes the permission bits of the pages covering
// [vaddr, vaddr+length), mirroring mprotect().
func (as *AddressSpace) Protect(vaddr Addr, length uint64, perm Perm) error {
	as.gen++ // up front: a mid-range failure still mutated earlier pages
	as.execGen++
	n := int((length + PageSize - 1) / PageSize)
	for i := 0; i < n; i++ {
		a := vaddr + Addr(i*PageSize)
		pte, ok := as.pages[a.PageOf()]
		if !ok {
			return fmt.Errorf("mem: Protect: page %#x not mapped", uint64(a))
		}
		pte.Perm = perm
		as.pages[a.PageOf()] = pte
	}
	return nil
}

// SetPKey tags the pages covering [vaddr, vaddr+length) with a protection
// key, mirroring pkey_mprotect()'s key assignment. It bumps the translation
// generation (TLBs cache the key) but not the exec generation: no fetch
// consults the key, so decoded code stays valid across a re-tag.
func (as *AddressSpace) SetPKey(vaddr Addr, length uint64, key mpk.PKey) error {
	as.gen++ // up front: a mid-range failure still mutated earlier pages
	n := int((length + PageSize - 1) / PageSize)
	for i := 0; i < n; i++ {
		a := vaddr + Addr(i*PageSize)
		pte, ok := as.pages[a.PageOf()]
		if !ok {
			return fmt.Errorf("mem: SetPKey: page %#x not mapped", uint64(a))
		}
		pte.PKey = key
		as.pages[a.PageOf()] = pte
	}
	return nil
}

// Lookup returns the PTE covering vaddr.
func (as *AddressSpace) Lookup(vaddr Addr) (PTE, bool) {
	pte, ok := as.pages[vaddr.PageOf()]
	return pte, ok
}

// Mapped reports whether vaddr is mapped.
func (as *AddressSpace) Mapped(vaddr Addr) bool {
	_, ok := as.pages[vaddr.PageOf()]
	return ok
}

// Check performs the full architectural access check — PTE permission bits
// AND the PKRU register — and returns the frame on success. This mirrors
// the hardware behaviour the paper relies on: "MPK is supplementary to the
// existing page permission bits and both permissions will be checked during
// memory access" (§4.1).
func (as *AddressSpace) Check(vaddr Addr, kind mpk.AccessKind, pkru mpk.PKRU) (*Frame, *Fault) {
	pte, ok := as.pages[vaddr.PageOf()]
	if !ok {
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
func (as *AddressSpace) NumPages() int { return len(as.pages) }

// Package mpk models Intel Memory Protection Keys (MPK) as described in
// §2.3 of the paper: a 4-bit protection key in each page-table entry, a
// per-core PKRU register holding 16 two-bit permission pairs, and the
// non-privileged WRPKRU/RDPKRU instructions that manipulate it.
//
// The model reproduces the architectural semantics that uProcess depends on:
//
//   - PKRU is checked on data accesses (loads and stores) only; instruction
//     fetches are never subject to PKRU. This is what makes the paper's
//     executable-only shared text region workable (§4.1).
//   - MPK is supplementary to page permission bits: an access must pass both
//     the PTE permission check and the PKRU check.
//   - WRPKRU is cheap (11–260 cycles) and unprivileged, which is both the
//     performance opportunity and the attack surface the call gate closes.
package mpk

import (
	"errors"
	"fmt"
)

// PKey is a 4-bit protection key (0–15).
type PKey uint8

// NumKeys is the number of architectural protection keys.
const NumKeys = 16

// PKRU is the per-core protection-key rights register. Each key k owns two
// bits: bit 2k is AD (access disable) and bit 2k+1 is WD (write disable).
type PKRU uint32

const (
	adBit PKRU = 1 // access disable
	wdBit PKRU = 2 // write disable
)

// AllowNoneValue has every key's AD bit set: no data access to any key'd
// region. Key 0 is conventionally left accessible by hardware reset values,
// but uProcess threads start from an explicit PKRU so we expose the strict
// constant too.
const AllowNoneValue PKRU = 0x55555555

// AllowAllValue grants read+write for every key.
const AllowAllValue PKRU = 0

// CanRead reports whether the register permits data reads of pages tagged
// with key k.
func (p PKRU) CanRead(k PKey) bool {
	return p>>(2*uint(k))&adBit == 0
}

// CanWrite reports whether the register permits data writes of pages tagged
// with key k.
func (p PKRU) CanWrite(k PKey) bool {
	bits := p >> (2 * uint(k))
	return bits&adBit == 0 && bits&wdBit == 0
}

// WithAccess returns a copy of p with key k's permissions replaced.
// read=false implies no access at all (AD set); write=false with read=true
// gives read-only (WD set).
func (p PKRU) WithAccess(k PKey, read, write bool) PKRU {
	shift := 2 * uint(k)
	p &^= (adBit | wdBit) << shift
	if !read {
		p |= adBit << shift
		return p
	}
	if !write {
		p |= wdBit << shift
	}
	return p
}

// Key returns the (read, write) permission pair for key k.
func (p PKRU) Key(k PKey) (read, write bool) {
	return p.CanRead(k), p.CanWrite(k)
}

func (p PKRU) String() string {
	s := make([]byte, 0, NumKeys)
	for k := PKey(0); k < NumKeys; k++ {
		switch {
		case p.CanWrite(k):
			s = append(s, 'W')
		case p.CanRead(k):
			s = append(s, 'R')
		default:
			s = append(s, '-')
		}
	}
	return string(s)
}

// AccessKind distinguishes the kinds of memory access for permission checks.
type AccessKind uint8

const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Check applies the architectural PKRU check for an access of the given
// kind against a page tagged with key k. Instruction fetches always pass:
// MPK does not mediate execution. This sits on the simulator's per-access
// hot path, so it is written to inline: a mask test instead of a jump
// table (AccessRead needs AD clear, AccessWrite needs AD and WD clear).
func (p PKRU) Check(k PKey, kind AccessKind) bool {
	if kind > AccessWrite {
		return kind == AccessExec
	}
	mask := adBit
	if kind == AccessWrite {
		mask = adBit | wdBit
	}
	return p>>(2*uint(k))&mask == 0
}

// ErrNoKeys is Allocator.Alloc's error when every allocatable key is in
// use — the pkey_alloc() ENOSPC case. It is a fixed sentinel, so callers
// that fall back on exhaustion (virtual-key eviction hits it on every
// refill once the slots are full) pay no allocation for the failure.
var ErrNoKeys = errors.New("mpk: no free protection keys")

// Allocator hands out protection keys the way the kernel's pkey_alloc()
// does. Key 0 is reserved (the paper reserves it so unmanaged kProcess
// memory outside SMAS keeps working, §4.1 footnote 2).
type Allocator struct {
	used [NumKeys]bool
	// OnAlloc and OnFree, when non-nil, observe successful allocations
	// and frees — key-lifecycle probes for the observability layer
	// (libmpk's key-virtualisation pressure is visible exactly here).
	OnAlloc func(k PKey)
	OnFree  func(k PKey)
}

// NewAllocator returns an allocator with key 0 already reserved.
func NewAllocator() *Allocator {
	a := &Allocator{}
	a.used[0] = true
	return a
}

// Alloc returns the lowest free key, mirroring pkey_alloc(). Of the
// NumKeys (16) hardware keys, key 0 is reserved at construction, so
// exactly keys 1..15 are allocatable; Alloc fails when all 15 are in
// use, returning ErrNoKeys. (Callers with further reservations — SMAS
// holds back the runtime and pipe keys — see correspondingly fewer.)
func (a *Allocator) Alloc() (PKey, error) {
	for k := PKey(1); k < NumKeys; k++ {
		if !a.used[k] {
			a.used[k] = true
			if a.OnAlloc != nil {
				a.OnAlloc(k)
			}
			return k, nil
		}
	}
	return 0, ErrNoKeys
}

// Free releases a key, mirroring pkey_free(). Freeing key 0 or an
// unallocated key is an error.
func (a *Allocator) Free(k PKey) error {
	if k == 0 {
		return fmt.Errorf("mpk: key 0 is reserved")
	}
	if k >= NumKeys {
		return fmt.Errorf("mpk: key %d out of range", k)
	}
	if !a.used[k] {
		return fmt.Errorf("mpk: key %d is not allocated", k)
	}
	a.used[k] = false
	if a.OnFree != nil {
		a.OnFree(k)
	}
	return nil
}

// InUse reports whether key k is currently allocated.
func (a *Allocator) InUse(k PKey) bool {
	return k < NumKeys && a.used[k]
}

// Available returns the number of keys that can still be allocated.
func (a *Allocator) Available() int {
	n := 0
	for k := PKey(1); k < NumKeys; k++ {
		if !a.used[k] {
			n++
		}
	}
	return n
}

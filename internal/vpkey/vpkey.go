// Package vpkey virtualizes protection keys the way libmpk does: an
// unbounded space of software ("virtual") keys is multiplexed onto the
// hardware's 16 pkey slots, with LRU slot eviction and lazy PTE re-tagging
// on evict/refill. A domain's uProcess density is then no longer capped by
// the 4-bit hardware key field — the limit the paper inherits from MPK
// (§4.1) and that libmpk removes.
//
// The model mirrors the semantics that make virtualization sound on real
// hardware:
//
//   - Evicting a virtual key re-tags its data pages to a fence key (the
//     runtime key): every application PKRU denies the fence key, so an
//     evicted compartment is inaccessible to everyone until refilled, while
//     the privileged runtime (AllowAll) is unaffected.
//   - Text pages are never re-tagged: PKRU does not mediate instruction
//     fetches, so an evicted uProcess's code stays executable — only its
//     data loses (and regains) accessibility. This also bounds re-tag work
//     to the data region.
//   - Re-tagging goes through mem.AddressSpace.SetPKey, which rewrites the
//     key in place in the page table and bumps no generation: per-core
//     software TLBs read the key through the PTE they cached, so the next
//     access on any core sees the new key, and fetches never consult it.
//     TLBs, decoded-fetch caches and fused superblocks all stay warm
//     across evictions and refills, and a virtual-key switch costs the
//     re-tag it models, not a flush on every core of the domain.
//   - A virtual key pinned by a core (its current uProcess) is never
//     evicted: recycling a hardware slot under a live PKRU would let the
//     running compartment reach the new tenant's pages — the stale-key
//     reuse pitfall libmpk warns about.
//
// Everything is deterministic: recency is a monotonic touch counter, never
// wall clock, and eviction victims are chosen by (oldest touch, lowest
// virtual key), independent of map iteration order. Victim selection is a
// scan of the 16-entry slot array with an O(1) pinned test (a per-entry
// pin count), so an eviction allocates nothing.
package vpkey

import (
	"fmt"
	"math"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// VKey is a virtual protection key. Valid keys are positive; 0 is "none".
type VKey int

// Range is one page-aligned data range owned by a virtual key.
type Range struct {
	Base mem.Addr
	Size uint64
}

// Retag is one attributed re-tagging action: which virtual key's pages
// moved, to which hardware slot (or the fence key), how many pages, on
// whose behalf. The lifecycle oracle audits that every SetPKey the table
// performed is accounted for here. Fields are sized so a record is 16
// bytes: the log runs to its cap in every long run.
type Retag struct {
	VKey  VKey
	Pages int32
	// Core is the core whose activation drove the re-tag, or -1 when the
	// table acted on the manager's behalf (region allocation, thrash).
	Core int16
	// Slot is the hardware key the pages now carry: the fence key for an
	// eviction, the granted slot for a refill.
	Slot   mpk.PKey
	Reason Reason
}

// Reason says why a re-tag happened.
type Reason uint8

// Evict re-tags a victim's pages to the fence key; Refill re-tags them to
// the slot the key was granted back. The zero Reason is neither.
const (
	Evict Reason = iota + 1
	Refill
)

func (r Reason) String() string {
	switch r {
	case Evict:
		return "evict"
	case Refill:
		return "refill"
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// retagLogCap bounds the attribution log; overflow is counted, never
// silent, so the oracle knows when the log stopped being exhaustive.
const retagLogCap = 1 << 14

// warmWays is the per-core warm-cache associativity: enough for the
// handful of uProcesses that ping-pong on one core between evictions.
const warmWays = 8

type entry struct {
	vk   VKey
	slot mpk.PKey // 0 while evicted (key 0 is reserved, never a slot)
	// ranges are the data ranges re-tagged on evict/refill.
	ranges    []Range
	pages     int
	lastTouch uint64
	// pins counts the cores whose current pin is this key; the key is
	// evictable and freeable exactly when it is zero.
	pins int
}

type warmLine struct {
	vk   VKey
	slot mpk.PKey
	gen  uint64
}

// Table maps live virtual keys onto hardware slots drawn from an
// mpk.Allocator. It is single-writer, like the simulation that drives it.
type Table struct {
	as    *mem.AddressSpace
	keys  *mpk.Allocator
	fence mpk.PKey
	// limit bounds usable slots to [1, limit): the app-key range of the
	// owning SMAS (fixed-role keys are never slots).
	limit mpk.PKey

	// entries[vk] is vk's entry, nil once freed. Keys are issued densely
	// from 1, so entries[0] is always nil and the next key to issue is
	// len(entries).
	entries []*entry
	live    int
	// slots[k] is the entry resident on hardware key k, nil when k is not
	// a slot the table holds.
	slots [mpk.NumKeys]*entry
	// pins[core] is the key core pins, 0 for none; warm[core] is core's
	// warm cache. Both grow to the highest core that has touched a key.
	pins  []VKey
	warm  [][warmWays]warmLine
	clock uint64
	gen   uint64

	// Counters, all monotonic and deterministic.
	Allocs        uint64
	Frees         uint64
	Evictions     uint64
	Refills       uint64
	RetaggedPages uint64
	WarmHits      uint64

	// RetagLog attributes every re-tag; RetagDropped counts records the
	// bounded log could not keep.
	RetagLog     []Retag
	RetagDropped uint64

	// OnEvict and OnRefill, when non-nil, observe slot movement — the
	// observability layer's probes.
	OnEvict  func(core int, vk VKey, slot mpk.PKey, pages int)
	OnRefill func(core int, vk VKey, slot mpk.PKey, pages int)
}

// New builds a table over an address space and a hardware-key allocator.
// Evicted pages are re-tagged to fence; slots are only ever accepted from
// the allocator when below limit.
func New(as *mem.AddressSpace, keys *mpk.Allocator, fence, limit mpk.PKey) *Table {
	return &Table{
		as:      as,
		keys:    keys,
		fence:   fence,
		limit:   limit,
		entries: []*entry{nil},
	}
}

// Generation counts evictions: any cached (virtual key → slot) binding is
// stale once it changes. The per-core warm cache keys on it; external warm
// caches may too.
func (t *Table) Generation() uint64 { return t.gen }

// Live returns the number of live virtual keys.
func (t *Table) Live() int { return t.live }

// entry returns vk's entry, or nil when vk is not live.
func (t *Table) entry(vk VKey) *entry {
	if vk <= 0 || int(vk) >= len(t.entries) {
		return nil
	}
	return t.entries[vk]
}

// Resident returns how many live virtual keys currently hold a slot.
func (t *Table) Resident() int {
	n := 0
	for _, e := range t.slots {
		if e != nil {
			n++
		}
	}
	return n
}

// Holds reports whether hardware key k is a slot currently owned by the
// table — the self-healing reconciler must not "heal" these as leaks.
func (t *Table) Holds(k mpk.PKey) bool {
	return k < mpk.NumKeys && t.slots[k] != nil
}

// Owner returns the virtual key holding hardware slot k.
func (t *Table) Owner(k mpk.PKey) (VKey, bool) {
	if !t.Holds(k) {
		return 0, false
	}
	return t.slots[k].vk, true
}

// setSlot records e as resident on slot k.
func (t *Table) setSlot(k mpk.PKey, e *entry) {
	e.slot = k
	t.slots[k] = e
}

// clearSlot drops e's residency, returning the slot it held.
func (t *Table) clearSlot(e *entry) mpk.PKey {
	k := e.slot
	e.slot = 0
	t.slots[k] = nil
	return k
}

// SlotOf returns vk's current slot; ok is false while vk is evicted or
// unknown.
func (t *Table) SlotOf(vk VKey) (mpk.PKey, bool) {
	e := t.entry(vk)
	if e == nil || e.slot == 0 {
		return 0, false
	}
	return e.slot, true
}

// MaxIssued returns the highest virtual key handed out so far.
func (t *Table) MaxIssued() VKey { return VKey(len(t.entries) - 1) }

// Alloc issues a fresh virtual key and makes it resident, evicting the
// least-recently-used unpinned key if no hardware slot is free. The
// returned slot is what the caller tags the new region's pages with.
func (t *Table) Alloc() (VKey, mpk.PKey, error) {
	slot, err := t.acquireSlot(-1)
	if err != nil {
		return 0, 0, err
	}
	vk := VKey(len(t.entries))
	t.clock++
	e := &entry{vk: vk, lastTouch: t.clock}
	t.entries = append(t.entries, e)
	t.live++
	t.setSlot(slot, e)
	t.Allocs++
	return vk, slot, nil
}

// Bind registers a data range under vk. Pages must already carry vk's
// current slot (the caller maps them with the slot Alloc returned); from
// here on evict/refill re-tags them.
func (t *Table) Bind(vk VKey, base mem.Addr, size uint64) error {
	e := t.entry(vk)
	if e == nil {
		return fmt.Errorf("vpkey: Bind of unknown key %d", vk)
	}
	pages := int((size + mem.PageSize - 1) / mem.PageSize)
	e.ranges = append(e.ranges, Range{Base: base, Size: size})
	e.pages += pages
	return nil
}

// Free retires a virtual key. A resident key's slot returns to the
// allocator; an evicted key owns no slot. The caller unmaps the pages.
// Freeing a pinned key is refused — some core's PKRU still grants it.
func (t *Table) Free(vk VKey) error {
	e := t.entry(vk)
	if e == nil {
		return fmt.Errorf("vpkey: Free of unknown key %d", vk)
	}
	if e.pins > 0 {
		return fmt.Errorf("vpkey: key %d is pinned by %d core(s)", vk, e.pins)
	}
	if e.slot != 0 {
		slot := t.clearSlot(e)
		if err := t.keys.Free(slot); err != nil {
			return fmt.Errorf("vpkey: releasing slot %d: %w", slot, err)
		}
	}
	t.entries[vk] = nil
	t.live--
	t.Frees++
	return nil
}

// Touch makes vk resident (refilling after an eviction if needed), pins it
// to core (an index; a negative core is refused), and returns its slot
// plus the number of pages re-tagged — the cost the caller charges to the
// core. The per-core warm cache makes the no-eviction crossing path a
// handful of comparisons.
func (t *Table) Touch(vk VKey, core int) (mpk.PKey, int, error) {
	e := t.entry(vk)
	if e == nil {
		return 0, 0, fmt.Errorf("vpkey: Touch of unknown key %d", vk)
	}
	if core < 0 || core > math.MaxInt16 { // Retag.Core is an int16
		return 0, 0, fmt.Errorf("vpkey: Touch of key %d on invalid core %d", vk, core)
	}
	if core >= len(t.pins) {
		t.pins = append(t.pins, make([]VKey, core+1-len(t.pins))...)
		t.warm = append(t.warm, make([][warmWays]warmLine, core+1-len(t.warm))...)
	}
	if l := &t.warm[core][int(vk)%warmWays]; l.vk == vk && l.gen == t.gen {
		t.WarmHits++
		t.clock++
		e.lastTouch = t.clock
		t.pin(core, e)
		return l.slot, 0, nil
	}
	t.clock++
	e.lastTouch = t.clock
	// Pin before any eviction decision: the key being activated must not
	// be the victim of its own refill.
	t.pin(core, e)
	retagged := 0
	if e.slot == 0 {
		slot, err := t.acquireSlot(core)
		if err != nil {
			t.Unpin(core)
			return 0, 0, err
		}
		t.setSlot(slot, e)
		retagged = t.retag(e, slot, Refill, core)
		t.Refills++
		if t.OnRefill != nil {
			t.OnRefill(core, vk, slot, retagged)
		}
	}
	t.warm[core][int(vk)%warmWays] = warmLine{vk: vk, slot: e.slot, gen: t.gen}
	return e.slot, retagged, nil
}

// pin makes e the key core pins, moving the core's pin count off the key
// it pinned before. core indexes pins: Touch has grown it.
func (t *Table) pin(core int, e *entry) {
	old := t.pins[core]
	if old == e.vk {
		return
	}
	if old != 0 {
		t.entries[old].pins--
	}
	t.pins[core] = e.vk
	e.pins++
}

// Unpin releases a core's pin, making its last virtual key evictable
// again. Call it when the core idles or is fenced.
func (t *Table) Unpin(core int) {
	if old := t.Pinned(core); old != 0 {
		t.entries[old].pins--
		t.pins[core] = 0
	}
}

// Pinned returns the virtual key core currently pins, or 0.
func (t *Table) Pinned(core int) VKey {
	if core < 0 || core >= len(t.pins) {
		return 0
	}
	return t.pins[core]
}

// acquireSlot finds a free hardware slot: from the allocator if one is
// free in the app range, otherwise by evicting the LRU unpinned resident
// key. core attributes the eviction (-1 = manager).
func (t *Table) acquireSlot(core int) (mpk.PKey, error) {
	if k, err := t.keys.Alloc(); err == nil {
		if k < t.limit {
			return k, nil
		}
		// The allocator handed out a fixed-role key (only possible if the
		// owning SMAS's reservations were tampered with): put it back and
		// fall through to eviction.
		t.keys.Free(k)
	}
	victim := t.victim()
	if victim == nil {
		return 0, fmt.Errorf("vpkey: all %d resident keys are pinned; no slot can be evicted", t.Resident())
	}
	pages := t.retag(victim, t.fence, Evict, core)
	slot := t.clearSlot(victim)
	t.Evictions++
	t.gen++ // every warm (vk → slot) binding is now suspect
	if t.OnEvict != nil {
		t.OnEvict(core, victim.vk, slot, pages)
	}
	return slot, nil
}

// victim picks the eviction victim: resident, unpinned, oldest touch,
// ties broken by lowest virtual key — a pure function of table state.
func (t *Table) victim() *entry {
	var best *entry
	for _, e := range t.slots {
		if e == nil || e.pins > 0 {
			continue
		}
		if best == nil || e.lastTouch < best.lastTouch ||
			(e.lastTouch == best.lastTouch && e.vk < best.vk) {
			best = e
		}
	}
	return best
}

// retag moves every page of e's ranges to key, records the attribution,
// and returns the page count. SetPKey rewrites the keys in place, where
// every core's TLB reads them; no cache needs a flush.
func (t *Table) retag(e *entry, key mpk.PKey, reason Reason, core int) int {
	pages := 0
	for _, r := range e.ranges {
		if err := t.as.SetPKey(r.Base, r.Size, key); err != nil {
			// Ranges are bound by the owning SMAS over pages it mapped;
			// a failure here means the table and address space disagree.
			panic(fmt.Sprintf("vpkey: retag of key %d range %#x+%#x: %v", e.vk, uint64(r.Base), r.Size, err))
		}
		pages += int((r.Size + mem.PageSize - 1) / mem.PageSize)
	}
	t.RetaggedPages += uint64(pages)
	if len(t.RetagLog) < retagLogCap {
		t.RetagLog = append(t.RetagLog, Retag{VKey: e.vk, Pages: int32(pages), Core: int16(core), Slot: key, Reason: reason})
	} else {
		t.RetagDropped++
	}
	return pages
}

// Thrash force-evicts every unpinned resident key — the eviction-storm
// fault (faultinject.PkeyThrash). It returns how many keys were evicted
// and how many pages were re-tagged.
func (t *Table) Thrash() (evicted, pages int) {
	for {
		v := t.victim()
		if v == nil {
			return evicted, pages
		}
		pages += t.retag(v, t.fence, Evict, -1)
		slot := t.clearSlot(v)
		// The freed slot goes back to the allocator: a thrash leaves free
		// hardware slots behind, exactly like a burst of pkey_free calls.
		if err := t.keys.Free(slot); err != nil {
			panic(fmt.Sprintf("vpkey: thrash releasing slot %d: %v", slot, err))
		}
		t.Evictions++
		t.gen++
		evicted++
		if t.OnEvict != nil {
			t.OnEvict(-1, v.vk, slot, v.pages)
		}
	}
}

// Info is a deterministic snapshot of one live virtual key, for oracles.
type Info struct {
	VKey   VKey
	Slot   mpk.PKey // 0 while evicted
	Pages  int
	Ranges []Range
	Pinned bool
}

// LiveInfo snapshots every live virtual key in ascending key order.
func (t *Table) LiveInfo() []Info {
	out := make([]Info, 0, t.live)
	for _, e := range t.entries {
		if e == nil {
			continue
		}
		out = append(out, Info{
			VKey:   e.vk,
			Slot:   e.slot,
			Pages:  e.pages,
			Ranges: append([]Range(nil), e.ranges...),
			Pinned: e.pins > 0,
		})
	}
	return out
}

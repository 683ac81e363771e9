package smas

import (
	"fmt"

	"vessel/internal/mem"
	"vessel/internal/mpk"
	"vessel/internal/vpkey"
)

// This file threads the libmpk-style virtual-key layer (internal/vpkey)
// through SMAS. In virtual mode a uProcess region is identified by a
// virtual key that survives forever, while the hardware slot tagging its
// pages comes and goes: the vpkey.Table evicts the LRU unpinned region's
// slot when a 14th (or 40th, or 100th) region needs one, re-tagging the
// victim's data pages to the runtime key so no application PKRU can reach
// them until refill. Direct mode — the paper's fixed 13-key budget — is
// untouched: every virtual-mode branch below is behind s.Virtual().

// EnableVirtualKeys switches the SMAS to virtualized protection keys. It
// must be called before any region is allocated: retrofitting live
// direct-mode regions would mean inventing virtual keys for pages the
// table never tagged.
func (s *SMAS) EnableVirtualKeys() error {
	if len(s.regions) != 0 || len(s.vregions) != 0 {
		return fmt.Errorf("smas: EnableVirtualKeys with %d live regions", len(s.regions)+len(s.vregions))
	}
	if s.VKeys != nil {
		return nil
	}
	// Evicted pages are fenced with RuntimeKey: the runtime PKRU
	// (AllowAll) still reaches them, every AppPKRU denies them. Slots are
	// the app-key range [1, RuntimeKey).
	s.VKeys = vpkey.New(s.AS, s.Keys, RuntimeKey, RuntimeKey)
	s.vregions = make(map[vpkey.VKey]*Region)
	return nil
}

// Virtual reports whether protection keys are virtualized.
func (s *SMAS) Virtual() bool { return s.VKeys != nil }

// KeyOwned reports whether hardware key k is legitimately held by a live
// region — the self-healing reconciler frees in-use app keys this returns
// false for. In virtual mode ownership lives in the table (a slot moves
// between regions), not in a static region index.
func (s *SMAS) KeyOwned(k mpk.PKey) bool {
	if s.Virtual() {
		return s.VKeys.Holds(k)
	}
	_, ok := s.regions[k]
	return ok
}

// LiveRegionCount returns the number of live uProcess regions regardless
// of residency — in virtual mode more can be live than RegionKeys (which
// only sees resident slots) reports.
func (s *SMAS) LiveRegionCount() int {
	if s.Virtual() {
		return len(s.vregions)
	}
	return len(s.regions)
}

// TouchRegion makes a region's pages accessible under its own key on the
// given core and returns the hardware key a PKRU must grant, plus how
// many pages were re-tagged to get there (0 on the warm path). In direct
// mode this is a constant-time identity. In virtual mode it pins the
// region's virtual key to the core, refilling after an eviction if
// needed; Region.Key is updated so later readers see the current slot.
func (s *SMAS) TouchRegion(r *Region, core int) (mpk.PKey, int, error) {
	if !s.Virtual() {
		return r.Key, 0, nil
	}
	slot, pages, err := s.VKeys.Touch(r.VKey, core)
	if err != nil {
		return 0, 0, err
	}
	r.Key = slot
	return slot, pages, nil
}

// UnpinCore releases the core's virtual-key pin when it idles or is
// fenced, making the key evictable again. No-op in direct mode.
func (s *SMAS) UnpinCore(core int) {
	if s.Virtual() {
		s.VKeys.Unpin(core)
	}
}

// allocRegionVirtual is AllocRegion's virtual-mode body: a fresh virtual
// key, a slot from the table (evicting if the hardware is full), pages
// mapped under that slot and bound to the key for future re-tagging.
func (s *SMAS) allocRegionVirtual(size uint64) (*Region, error) {
	vk, slot, err := s.VKeys.Alloc()
	if err != nil {
		return nil, fmt.Errorf("smas: no evictable key slot: %w", err)
	}
	pages := (size + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	base := s.dataCursor
	if err := s.AS.MapRange(base, pages*mem.PageSize, mem.PermRW, slot); err != nil {
		s.VKeys.Free(vk)
		return nil, err
	}
	if err := s.VKeys.Bind(vk, base, pages*mem.PageSize); err != nil {
		s.AS.Unmap(base, pages*mem.PageSize)
		s.VKeys.Free(vk)
		return nil, err
	}
	s.dataCursor += mem.Addr(pages*mem.PageSize) + mem.PageSize // guard gap
	r := &Region{
		Base:     base,
		Size:     pages * mem.PageSize,
		Key:      slot,
		VKey:     vk,
		StackTop: base + mem.Addr(pages*mem.PageSize),
	}
	s.vregions[vk] = r
	return r, nil
}

// freeRegionVirtual is FreeRegion's virtual-mode body. The virtual key
// must be unpinned (no core's live PKRU may still grant its slot); the
// slot, if resident, returns to the allocator inside VKeys.Free.
func (s *SMAS) freeRegionVirtual(r *Region) error {
	s.AS.Unmap(r.Base, r.Size)
	delete(s.vregions, r.VKey)
	return s.VKeys.Free(r.VKey)
}

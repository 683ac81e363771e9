package conformance

import (
	"fmt"

	"vessel/internal/mem"
	"vessel/internal/mpk"
	"vessel/internal/smas"
)

// CheckVPkeyLifecycle audits a domain's protection-key state against the
// virtualization invariants (DESIGN.md §14). The layer silently breaking
// isolation would invalidate every experiment above it, so the oracle
// re-derives each property from the ground truth — the page table and the
// hardware-key allocator — rather than trusting the table's own counters:
//
//   - "slot-unique": no two live virtual keys hold the same hardware
//     slot, and the table's slot index is the exact inverse of its entry
//     index;
//   - "eviction-fence": every page of a resident key carries its slot;
//     every page of an evicted key carries the fence (runtime) key, i.e.
//     is inaccessible to every application PKRU until refill;
//   - "retag-attribution": every re-tag the table performed is accounted
//     for in the attribution log (when the bounded log did not overflow),
//     with a valid reason and a virtual key the table actually issued;
//   - "slot-leak": the allocator and the table agree exactly — every
//     in-use app-range key is held by a live virtual key and vice versa,
//     so alloc/free/reap cycles leak nothing in either direction.
//
// On a direct-mode SMAS it degrades to the phantom-key audit: every
// in-use app key must back a live region.
func CheckVPkeyLifecycle(system string, s *smas.SMAS) []Violation {
	var out []Violation
	add := func(oracle, format string, args ...any) {
		out = append(out, Violation{System: system, Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	if !s.Virtual() {
		// Direct mode: the PR 4 phantom-key audit. RegionKeys is the
		// owner set; anything else in use in the app range is a leak.
		owned := make(map[mpk.PKey]bool)
		for _, k := range s.RegionKeys() {
			owned[k] = true
		}
		for k := mpk.PKey(1); k < smas.RuntimeKey; k++ {
			if s.Keys.InUse(k) && !owned[k] {
				add("slot-leak", "key %d in use but no live region owns it", k)
			}
			if owned[k] && !s.Keys.InUse(k) {
				add("slot-leak", "region holds key %d the allocator thinks is free", k)
			}
		}
		return out
	}

	t := s.VKeys
	live := t.LiveInfo()

	// slot-unique: resident slots are distinct, in the app range, and the
	// table's reverse index agrees.
	slots := make(map[mpk.PKey]int) // slot → vkey
	resident := 0
	for _, e := range live {
		if e.Slot == 0 {
			continue
		}
		resident++
		if e.Slot >= smas.RuntimeKey {
			add("slot-unique", "virtual key %d holds reserved key %d", e.VKey, e.Slot)
		}
		if prev, dup := slots[e.Slot]; dup {
			add("slot-unique", "virtual keys %d and %d share slot %d", prev, e.VKey, e.Slot)
		}
		slots[e.Slot] = int(e.VKey)
		if owner, ok := t.Owner(e.Slot); !ok || int(owner) != int(e.VKey) {
			add("slot-unique", "slot index says slot %d belongs to %d, entry says %d", e.Slot, owner, e.VKey)
		}
	}
	if resident != t.Resident() {
		add("slot-unique", "%d entries resident but slot index holds %d", resident, t.Resident())
	}

	// eviction-fence: re-derive accessibility from the page table.
	for _, e := range live {
		want := e.Slot
		state := "resident"
		if e.Slot == 0 {
			want = smas.RuntimeKey
			state = "evicted"
		}
		for _, r := range e.Ranges {
			for a := r.Base; a < r.Base+mem.Addr(r.Size); a += mem.PageSize {
				pte, ok := s.AS.Lookup(a)
				if !ok {
					add("eviction-fence", "virtual key %d (%s): page %#x unmapped", e.VKey, state, uint64(a))
					break
				}
				if pte.PKey != want {
					add("eviction-fence", "virtual key %d (%s): page %#x tagged %d, want %d",
						e.VKey, state, uint64(a), pte.PKey, want)
					break
				}
			}
		}
	}

	// retag-attribution: the log balances the counter and names only
	// sane work.
	if t.RetagDropped == 0 {
		var sum uint64
		for i, r := range t.RetagLog {
			sum += uint64(r.Pages)
			if why := r.Reason.String(); why != "evict" && why != "refill" {
				add("retag-attribution", "record %d has reason %q", i, r.Reason)
			}
			if r.VKey <= 0 || r.VKey > t.MaxIssued() {
				add("retag-attribution", "record %d names virtual key %d, never issued", i, r.VKey)
			}
			if r.Pages < 0 {
				add("retag-attribution", "record %d re-tags %d pages", i, r.Pages)
			}
		}
		if sum != t.RetaggedPages {
			add("retag-attribution", "log accounts %d pages, counter says %d", sum, t.RetaggedPages)
		}
		if got, want := uint64(len(t.RetagLog)), t.Evictions+t.Refills; got != want {
			add("retag-attribution", "%d records for %d evictions + %d refills", got, t.Evictions, t.Refills)
		}
	}

	// slot-leak: allocator ↔ table agreement in both directions.
	for k := mpk.PKey(1); k < smas.RuntimeKey; k++ {
		inUse, held := s.Keys.InUse(k), t.Holds(k)
		if inUse && !held {
			add("slot-leak", "key %d in use but the virtual-key table does not hold it", k)
		}
		if held && !inUse {
			add("slot-leak", "table holds slot %d the allocator thinks is free", k)
		}
	}

	return out
}

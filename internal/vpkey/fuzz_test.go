package vpkey

import (
	"testing"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// FuzzVPkeyOps drives random alloc/free/touch/unpin/thrash interleavings
// against a model map and checks the virtualization invariants after
// every operation: slot uniqueness, fence-tagging of evicted pages,
// slot-tagging of resident pages, allocator/table agreement, pin-count
// agreement with the per-core pins, and attribution balance. The ops are decoded two bytes at a time
// (op selector, operand), so the corpus stays dense. A touch or unpin
// operand below 0x80 names one of four low cores; from 0x80 up it is the
// core number itself, so the per-core tables grow to high cores.
func FuzzVPkeyOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 0, 1, 0, 2, 1, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 2, 0x81, 2, 0xc0, 1, 0x81, 3, 0x81, 2, 0xff, 1, 0xff, 4, 0, 3, 0xff, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		as := mem.NewAddressSpace(mem.NewPhysical())
		keys := mpk.NewAllocator()
		for i := 0; i < 15; i++ {
			if _, err := keys.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		for k := mpk.PKey(1); k < testFence; k++ {
			if err := keys.Free(k); err != nil {
				t.Fatal(err)
			}
		}
		tab := New(as, keys, testFence, testLimit)

		const maxCore = 0xff
		coreOf := func(arg byte) int {
			if arg < 0x80 {
				return int(arg) % 4
			}
			return int(arg)
		}
		base := mem.Addr(0x1000_0000)
		// model: every live virtual key and its single bound page.
		model := make(map[VKey]mem.Addr)
		var order []VKey // live keys in creation order, for operand decode
		next := 0

		live := func(idx byte) (VKey, bool) {
			if len(order) == 0 {
				return 0, false
			}
			return order[int(idx)%len(order)], true
		}
		removeLive := func(vk VKey) {
			for i, v := range order {
				if v == vk {
					order = append(order[:i], order[i+1:]...)
					return
				}
			}
		}

		check := func() {
			t.Helper()
			// Pin counts: every live key's count is the number of cores
			// pinning it, so victim() and Free can test it in O(1).
			pinners := make(map[VKey]int)
			for c := 0; c <= maxCore; c++ {
				if vk := tab.Pinned(c); vk != 0 {
					pinners[vk]++
				}
			}
			for vk := range model {
				if got := tab.entries[vk].pins; got != pinners[vk] {
					t.Fatalf("key %d pin count %d, but %d cores pin it", vk, got, pinners[vk])
				}
			}
			// Slot uniqueness + allocator agreement: every resident slot
			// is in use and in the app range; resident count matches.
			seen := make(map[mpk.PKey]bool)
			resident := 0
			for vk, pb := range model {
				slot, ok := tab.SlotOf(vk)
				if ok {
					resident++
					if slot <= 0 || slot >= testLimit {
						t.Fatalf("key %d resident on out-of-range slot %d", vk, slot)
					}
					if seen[slot] {
						t.Fatalf("slot %d shared by two live keys", slot)
					}
					seen[slot] = true
					if !keys.InUse(slot) {
						t.Fatalf("resident slot %d not in use in the allocator", slot)
					}
					if owner, _ := tab.Owner(slot); owner != vk {
						t.Fatalf("slot %d owner %d, want %d", slot, owner, vk)
					}
					// Resident pages carry the slot.
					if pte, ok2 := as.Lookup(pb); !ok2 || pte.PKey != slot {
						t.Fatalf("resident key %d page tagged %d, want slot %d", vk, pte.PKey, slot)
					}
				} else {
					// Evicted pages carry the fence: inaccessible to every
					// application PKRU until refill.
					if pte, ok2 := as.Lookup(pb); !ok2 || pte.PKey != testFence {
						t.Fatalf("evicted key %d page tagged %d, want fence %d", vk, pte.PKey, testFence)
					}
				}
			}
			if resident != tab.Resident() {
				t.Fatalf("model sees %d resident, table says %d", resident, tab.Resident())
			}
			if len(model) != tab.Live() {
				t.Fatalf("model has %d live keys, table says %d", len(model), tab.Live())
			}
			// Attribution: with no overflow, the log accounts for every
			// re-tagged page.
			if tab.RetagDropped == 0 {
				var sum uint64
				for _, r := range tab.RetagLog {
					sum += uint64(r.Pages)
				}
				if sum != tab.RetaggedPages {
					t.Fatalf("attribution: log %d pages, counter %d", sum, tab.RetaggedPages)
				}
			}
		}

		for i := 0; i+1 < len(data) && next < 200; i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 5 {
			case 0: // alloc + map + bind
				vk, slot, err := tab.Alloc()
				if err != nil {
					continue // all slots pinned — legal state
				}
				pb := base + mem.Addr(next)*0x10000
				next++
				if err := as.MapRange(pb, mem.PageSize, mem.PermRW, slot); err != nil {
					t.Fatal(err)
				}
				if err := tab.Bind(vk, pb, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				model[vk] = pb
				order = append(order, vk)
			case 1: // free (may be refused while pinned)
				vk, ok := live(arg)
				if !ok {
					continue
				}
				pins := tab.entries[vk].pins
				err := tab.Free(vk)
				if (err != nil) != (pins > 0) {
					t.Fatalf("Free(%d) = %v with pin count %d: must be refused exactly when pinned",
						vk, err, pins)
				}
				if err == nil {
					as.Unmap(model[vk], mem.PageSize)
					delete(model, vk)
					removeLive(vk)
				}
			case 2: // touch on some core
				vk, ok := live(arg)
				if !ok {
					continue
				}
				slot, _, err := tab.Touch(vk, coreOf(arg))
				if err != nil {
					continue // every slot pinned elsewhere — legal
				}
				if got, ok2 := tab.SlotOf(vk); !ok2 || got != slot {
					t.Fatalf("Touch returned slot %d but SlotOf says (%d, %v)", slot, got, ok2)
				}
			case 3: // unpin a core
				tab.Unpin(coreOf(arg))
			case 4: // eviction storm
				tab.Thrash()
			}
			check()
		}
	})
}

package vpkey

import (
	"math"
	"testing"
	"unsafe"

	"vessel/internal/mem"
	"vessel/internal/mpk"
)

// fence/limit mirror the SMAS key layout: keys 1..13 are slots, 14 is the
// runtime (fence) key, 15 the pipe key, key 0 reserved.
const (
	testFence = mpk.PKey(14)
	testLimit = mpk.PKey(14)
)

// newTable builds a table over a standalone address space with the SMAS
// reservation pattern (0, 14, 15 held back).
func newTable(t *testing.T) (*Table, *mem.AddressSpace, *mpk.Allocator) {
	t.Helper()
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
	return New(as, keys, testFence, testLimit), as, keys
}

// mapRegion allocates a key, maps one page for it at base, and binds it.
func mapRegion(t *testing.T, tab *Table, as *mem.AddressSpace, base mem.Addr) (VKey, mpk.PKey) {
	t.Helper()
	vk, slot, err := tab.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := as.MapRange(base, mem.PageSize, mem.PermRW, slot); err != nil {
		t.Fatalf("MapRange: %v", err)
	}
	if err := tab.Bind(vk, base, mem.PageSize); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return vk, slot
}

func pageKey(t *testing.T, as *mem.AddressSpace, a mem.Addr) mpk.PKey {
	t.Helper()
	pte, ok := as.Lookup(a)
	if !ok {
		t.Fatalf("addr %#x not mapped", uint64(a))
	}
	return pte.PKey
}

func TestAllocEvictsLRUAndRetagsToFence(t *testing.T) {
	tab, as, keys := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 13; i++ {
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	if keys.Available() != 0 {
		t.Fatalf("13 regions should consume all 13 slots; %d free", keys.Available())
	}
	// Touch every key except vks[0] so vks[0] is the LRU victim.
	for _, vk := range vks[1:] {
		if _, _, err := tab.Touch(vk, 0); err != nil {
			t.Fatal(err)
		}
	}
	tab.Unpin(0)
	gen := tab.Generation()
	vk14, slot14 := mapRegion(t, tab, as, base+13*0x10000)
	if tab.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", tab.Evictions)
	}
	if tab.Generation() != gen+1 {
		t.Fatalf("generation did not bump on eviction")
	}
	if _, resident := tab.SlotOf(vks[0]); resident {
		t.Fatal("LRU key should be evicted")
	}
	// The victim's page is fenced; the new key's page carries the slot.
	if k := pageKey(t, as, base); k != testFence {
		t.Fatalf("evicted page tagged %d, want fence %d", k, testFence)
	}
	if k := pageKey(t, as, base+13*0x10000); k != slot14 {
		t.Fatalf("new page tagged %d, want slot %d", k, slot14)
	}
	if owner, _ := tab.Owner(slot14); owner != vk14 {
		t.Fatalf("slot %d owned by %d, want %d", slot14, owner, vk14)
	}
}

func TestTouchRefillsAndWarmCacheHits(t *testing.T) {
	tab, as, _ := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 14; i++ { // one more than slots: vks[0] ends evicted
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	if _, resident := tab.SlotOf(vks[0]); resident {
		t.Fatal("vks[0] should have been evicted by the 14th alloc")
	}
	slot, pages, err := tab.Touch(vks[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 {
		t.Fatalf("refill re-tagged %d pages, want 1", pages)
	}
	if k := pageKey(t, as, base); k != slot {
		t.Fatalf("refilled page tagged %d, want %d", k, slot)
	}
	if tab.Refills != 1 {
		t.Fatalf("Refills = %d, want 1", tab.Refills)
	}
	// Second touch on the same core is a warm hit: no re-tag.
	hits := tab.WarmHits
	slot2, pages2, err := tab.Touch(vks[0], 0)
	if err != nil || slot2 != slot || pages2 != 0 {
		t.Fatalf("warm touch = (%d, %d, %v), want (%d, 0, nil)", slot2, pages2, err, slot)
	}
	if tab.WarmHits != hits+1 {
		t.Fatalf("WarmHits = %d, want %d", tab.WarmHits, hits+1)
	}
}

func TestPinnedKeyIsNeverEvicted(t *testing.T) {
	tab, as, _ := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 13; i++ {
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	// Pin vks[0] (the LRU) to core 0; the next alloc must evict vks[1].
	if _, _, err := tab.Touch(vks[0], 0); err != nil {
		t.Fatal(err)
	}
	for _, vk := range vks[1:] {
		if _, _, err := tab.Touch(vk, 1); err != nil {
			t.Fatal(err)
		}
	}
	tab.Unpin(1)
	// vks[0] has the oldest touch now; it must be skipped as pinned.
	if _, _, err := tab.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, resident := tab.SlotOf(vks[0]); !resident {
		t.Fatal("pinned key was evicted")
	}
	if _, resident := tab.SlotOf(vks[1]); resident {
		t.Fatal("expected vks[1] (oldest unpinned) to be the victim")
	}
}

func TestAllPinnedFailsCleanly(t *testing.T) {
	tab, as, keys := newTable(t)
	base := mem.Addr(0x1000_0000)
	for i := 0; i < 13; i++ {
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		if _, _, err := tab.Touch(vk, i); err != nil { // 13 cores, 13 pins
			t.Fatal(err)
		}
	}
	if keys.Available() != 0 {
		t.Fatal("want zero free slots")
	}
	if _, _, err := tab.Alloc(); err == nil {
		t.Fatal("Alloc with every slot pinned should fail")
	}
	if tab.Live() != 13 {
		t.Fatalf("failed Alloc leaked an entry: Live = %d", tab.Live())
	}
}

func TestFreeReturnsSlotAndRefusesPinned(t *testing.T) {
	tab, as, keys := newTable(t)
	base := mem.Addr(0x1000_0000)
	vk, _ := mapRegion(t, tab, as, base)
	if _, _, err := tab.Touch(vk, 0); err != nil {
		t.Fatal(err)
	}
	if err := tab.Free(vk); err == nil {
		t.Fatal("Free of a pinned key should fail (a live PKRU grants its slot)")
	}
	tab.Unpin(0)
	avail := keys.Available()
	if err := tab.Free(vk); err != nil {
		t.Fatal(err)
	}
	if keys.Available() != avail+1 {
		t.Fatal("slot not returned to the allocator")
	}
	if err := tab.Free(vk); err == nil {
		t.Fatal("double Free should fail")
	}
}

func TestThrashEvictsAllUnpinned(t *testing.T) {
	tab, as, keys := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 6; i++ {
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	if _, _, err := tab.Touch(vks[5], 0); err != nil { // pin one
		t.Fatal(err)
	}
	evicted, pages := tab.Thrash()
	if evicted != 5 || pages != 5 {
		t.Fatalf("Thrash = (%d, %d), want (5, 5)", evicted, pages)
	}
	if tab.Resident() != 1 {
		t.Fatalf("Resident = %d after thrash, want 1 (the pinned key)", tab.Resident())
	}
	// Thrashed slots go back to the allocator, unlike eviction-for-reuse.
	if keys.Available() != 13-1 {
		t.Fatalf("Available = %d, want 12", keys.Available())
	}
	for _, vk := range vks[:5] {
		if i := int(vk) - 1; pageKey(t, as, base+mem.Addr(i)*0x10000) != testFence {
			t.Fatalf("thrashed key %d's page not fenced", vk)
		}
	}
}

func TestRetagAttributionBalances(t *testing.T) {
	tab, as, _ := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 20; i++ { // 7 evictions
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	for _, vk := range vks { // refill everything once, evicting more
		if _, _, err := tab.Touch(vk, 0); err != nil {
			t.Fatal(err)
		}
		tab.Unpin(0)
	}
	if tab.RetagDropped != 0 {
		t.Fatalf("RetagDropped = %d in a tiny run", tab.RetagDropped)
	}
	var sum uint64
	for _, r := range tab.RetagLog {
		if r.Reason != Evict && r.Reason != Refill {
			t.Fatalf("bad reason %q", r.Reason)
		}
		sum += uint64(r.Pages)
	}
	if sum != tab.RetaggedPages {
		t.Fatalf("attribution: log sums %d pages, counter says %d", sum, tab.RetaggedPages)
	}
	if uint64(len(tab.RetagLog)) != tab.Evictions+tab.Refills {
		t.Fatalf("log has %d records, want %d evictions + %d refills",
			len(tab.RetagLog), tab.Evictions, tab.Refills)
	}
}

func TestVictimChoiceIsDeterministic(t *testing.T) {
	// Two identical runs over interleaved touches must pick identical
	// victims (min lastTouch, ties by lowest vkey — never map order).
	run := func() []uint64 {
		tab, as, _ := newTable(t)
		base := mem.Addr(0x1000_0000)
		var vks []VKey
		for i := 0; i < 13; i++ {
			vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
			vks = append(vks, vk)
		}
		for i := 0; i < 30; i++ {
			if _, _, err := tab.Touch(vks[(i*7)%13], 0); err != nil {
				t.Fatal(err)
			}
			tab.Unpin(0)
		}
		var evictOrder []uint64
		tab.OnEvict = func(_ int, vk VKey, _ mpk.PKey, _ int) {
			evictOrder = append(evictOrder, uint64(vk))
		}
		for i := 13; i < 19; i++ {
			mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		}
		return evictOrder
	}
	a, b := run(), run()
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("want 6 evictions per run, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim sequence diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// TestEvictingTouchAllocatesNothing cycles more keys than there are slots
// through one core, so every Touch evicts and refills: once the
// attribution log is full, the eviction path — allocator probe, victim
// scan, re-tag — must not allocate.
func TestEvictingTouchAllocatesNothing(t *testing.T) {
	tab, as, _ := newTable(t)
	base := mem.Addr(0x1000_0000)
	var vks []VKey
	for i := 0; i < 20; i++ {
		vk, _ := mapRegion(t, tab, as, base+mem.Addr(i)*0x10000)
		vks = append(vks, vk)
	}
	i := 0
	touch := func() {
		if _, _, err := tab.Touch(vks[i%len(vks)], 0); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for len(tab.RetagLog) < retagLogCap {
		touch()
	}
	evictions := tab.Evictions
	if n := testing.AllocsPerRun(200, touch); n != 0 {
		t.Fatalf("evicting Touch allocates %v times per call, want 0", n)
	}
	if tab.Evictions == evictions {
		t.Fatal("the measured Touches evicted nothing")
	}
}

// TestRetagIs16Bytes pins the attribution record's layout: every long run
// fills the log to retagLogCap records.
func TestRetagIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Retag{}); size != 16 {
		t.Fatalf("a Retag is %d bytes, want 16", size)
	}
	for r, want := range map[Reason]string{Evict: "evict", Refill: "refill", 0: "Reason(0)"} {
		if r.String() != want {
			t.Errorf("Reason(%d).String() = %q, want %q", uint8(r), r.String(), want)
		}
	}
}

// TestTouchRefusesCoreBeyondRecord: Touch refuses a core index Retag.Core
// cannot hold, rather than logging a truncated one.
func TestTouchRefusesCoreBeyondRecord(t *testing.T) {
	tab, as, _ := newTable(t)
	vk, _ := mapRegion(t, tab, as, 0x1000_0000)
	if _, _, err := tab.Touch(vk, math.MaxInt16+1); err == nil {
		t.Fatal("Touch on a core past int16 succeeded")
	}
	if tab.Pinned(math.MaxInt16+1) != 0 || len(tab.RetagLog) != 0 {
		t.Fatal("a refused Touch pinned a key or logged a re-tag")
	}
}

package vpkey

import (
	"testing"

	"vessel/internal/mem"
)

// TestInvalidKeysAreRefused: key 0, negative keys, never-issued keys and
// freed keys are not live, so every lookup reports so instead of
// indexing past the table.
func TestInvalidKeysAreRefused(t *testing.T) {
	tab, as, _ := newTable(t)
	live, _ := mapRegion(t, tab, as, 0x1000_0000)
	freed, _ := mapRegion(t, tab, as, 0x1001_0000)
	if err := tab.Free(freed); err != nil {
		t.Fatal(err)
	}
	for _, vk := range []VKey{0, -1, -1 << 40, tab.MaxIssued() + 1, 1 << 40, freed} {
		if _, _, err := tab.Touch(vk, 0); err == nil {
			t.Errorf("Touch(%d) succeeded", vk)
		}
		if err := tab.Bind(vk, 0x2000_0000, mem.PageSize); err == nil {
			t.Errorf("Bind(%d) succeeded", vk)
		}
		if err := tab.Free(vk); err == nil {
			t.Errorf("Free(%d) succeeded", vk)
		}
		if slot, ok := tab.SlotOf(vk); ok {
			t.Errorf("SlotOf(%d) = %d, true", vk, slot)
		}
	}
	if _, _, err := tab.Touch(live, -1); err == nil {
		t.Error("Touch on core -1 succeeded")
	}
	if tab.Live() != 1 || tab.Pinned(-1) != 0 {
		t.Fatalf("Live %d, Pinned(-1) %d after refused ops; want 1, 0", tab.Live(), tab.Pinned(-1))
	}
}

// TestPinsOnUnusedCores: Pinned and Unpin accept core -1 and cores that
// never touched a key; a high core grows the per-core tables, and its pin
// holds the key like any other.
func TestPinsOnUnusedCores(t *testing.T) {
	tab, as, _ := newTable(t)
	vk, _ := mapRegion(t, tab, as, 0x1000_0000)
	for _, core := range []int{-1, 0, 3, 1000} {
		if got := tab.Pinned(core); got != 0 {
			t.Fatalf("Pinned(%d) = %d before any touch", core, got)
		}
		tab.Unpin(core)
	}
	if _, _, err := tab.Touch(vk, 200); err != nil {
		t.Fatal(err)
	}
	if tab.Pinned(200) != vk || tab.Pinned(199) != 0 || tab.Pinned(201) != 0 {
		t.Fatalf("pins around core 200: %d %d %d", tab.Pinned(199), tab.Pinned(200), tab.Pinned(201))
	}
	if err := tab.Free(vk); err == nil {
		t.Fatal("Free of a key pinned by core 200 succeeded")
	}
	tab.Unpin(-1)
	tab.Unpin(1000)
	tab.Unpin(200)
	if tab.Pinned(200) != 0 {
		t.Fatal("Unpin(200) left the pin")
	}
	if err := tab.Free(vk); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAfterFrees: Live counts issued keys minus freed ones, and
// LiveInfo lists the survivors in key order.
func TestLiveAfterFrees(t *testing.T) {
	tab, as, _ := newTable(t)
	var vks []VKey
	for i := 0; i < 20; i++ {
		vk, _ := mapRegion(t, tab, as, mem.Addr(0x1000_0000+i*0x10000))
		vks = append(vks, vk)
	}
	for _, i := range []int{0, 5, 6, 19} {
		if err := tab.Free(vks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Live() != 16 {
		t.Fatalf("Live = %d, want 16", tab.Live())
	}
	info := tab.LiveInfo()
	if len(info) != 16 || info[0].VKey != vks[1] || info[4].VKey != vks[7] || info[15].VKey != vks[18] {
		t.Fatalf("LiveInfo keys wrong: %d entries, first %d", len(info), info[0].VKey)
	}
	vk, _ := mapRegion(t, tab, as, 0x2000_0000)
	if vk != vks[19]+1 || tab.Live() != 17 {
		t.Fatalf("next key %d, Live %d; want %d, 17", vk, tab.Live(), vks[19]+1)
	}
}

// TestWarmTouchAllocatesNothing: the warm-hit crossing path is a few
// comparisons and no allocation.
func TestWarmTouchAllocatesNothing(t *testing.T) {
	tab, as, _ := newTable(t)
	a, _ := mapRegion(t, tab, as, 0x1000_0000)
	b, _ := mapRegion(t, tab, as, 0x1001_0000)
	for _, vk := range []VKey{a, b} {
		if _, _, err := tab.Touch(vk, 5); err != nil {
			t.Fatal(err)
		}
	}
	hits := tab.WarmHits
	vk := a
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := tab.Touch(vk, 5); err != nil {
			t.Fatal(err)
		}
		vk = a + b - vk
	})
	if allocs != 0 {
		t.Fatalf("warm Touch allocates %v/op, want 0", allocs)
	}
	if tab.WarmHits-hits < 100 {
		t.Fatalf("only %d of the measured touches were warm hits", tab.WarmHits-hits)
	}
}

// TestRefillTouchAllocatesNothing: once the attribution log is full, a
// thrash followed by a Touch that refills the key into a free slot and
// re-tags its pages allocates nothing.
func TestRefillTouchAllocatesNothing(t *testing.T) {
	tab, as, _ := newTable(t)
	vk, _ := mapRegion(t, tab, as, 0x1000_0000)
	refill := func() {
		tab.Unpin(0)
		tab.Thrash()
		if _, pages, err := tab.Touch(vk, 0); err != nil || pages != 1 {
			t.Fatalf("Touch = %d pages, %v; want a 1-page refill", pages, err)
		}
	}
	for len(tab.RetagLog) < retagLogCap {
		refill()
	}
	if n := testing.AllocsPerRun(100, refill); n != 0 {
		t.Fatalf("refilling Touch allocates %v times per call, want 0", n)
	}
}

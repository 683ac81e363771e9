package multidomain

import (
	"fmt"
	"testing"

	"vessel/internal/smas"
	"vessel/internal/vessel"
)

// TestPlacementDestroyWithPendingReap pins the placement's bookkeeping
// when a lazy kill cannot land during Destroy's drain — here the core was
// never started, so the queued kill stays undrained. The name must be
// released at once (the manager no longer knows it, so a stuck record
// could never be retried), while the unreaped zombie keeps its key.
func TestPlacementDestroyWithPendingReap(t *testing.T) {
	mg, err := vessel.NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	manager := func(int) *vessel.Manager { return mg }
	p := Placement{}
	if _, err := p.Launch("spin", 0, mg, parkLoop(mg, "spin"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Claim("spin"); err == nil {
		t.Fatal("duplicate name claimed")
	}
	if err := p.Destroy("spin", manager); err != nil {
		t.Fatal(err)
	}
	if err := p.Claim("spin"); err != nil {
		t.Fatalf("name not released after destroy: %v", err)
	}
	if got := mg.Domain.S.Keys.Available(); got != smas.MaxUProcs-1 {
		t.Fatalf("free keys = %d, want %d (zombie key still held)", got, smas.MaxUProcs-1)
	}
	if err := p.Destroy("spin", manager); err == nil {
		t.Fatal("destroy of a removed name accepted")
	}
	// The freed name is immediately reusable on a fresh key.
	if _, err := p.Launch("spin", 0, mg, parkLoop(mg, "spin"), 0); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementRecordsOnlyAcceptedLaunches: a launch the domain refuses
// (here its 13 hardware keys are spent) leaves no placement record.
func TestPlacementRecordsOnlyAcceptedLaunches(t *testing.T) {
	mg, err := vessel.NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Placement{}
	for i := 0; i < smas.MaxUProcs; i++ {
		name := fmt.Sprintf("w%02d", i)
		if _, err := p.Launch(name, 0, mg, parkLoop(mg, name), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Launch("overflow", 0, mg, parkLoop(mg, "overflow"), 0); err == nil {
		t.Fatal("launch past the key budget accepted")
	}
	if err := p.Claim("overflow"); err != nil {
		t.Fatalf("refused launch left a record: %v", err)
	}
	if len(p) != smas.MaxUProcs {
		t.Fatalf("placement holds %d records, want %d", len(p), smas.MaxUProcs)
	}
}

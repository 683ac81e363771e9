package trace

import (
	"fmt"
	"strings"
	"testing"

	"vessel/internal/sim"
)

// TestRingEventLogOverwritesOldest pins the bounded-memory discipline long
// chaos soaks rely on: a full ring displaces its oldest entry, keeps the
// most recent max in order, and counts the displacements.
func TestRingEventLogOverwritesOldest(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i), fmt.Sprintf("e%d", i), "")
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	if l.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", l.Overwritten())
	}
	evs := l.Events()
	for i, ev := range evs {
		want := fmt.Sprintf("e%d", 6+i)
		if ev.Name != want || ev.T != sim.Time(6+i) {
			t.Fatalf("event %d = %s@%d, want %s", i, ev.Name, int64(ev.T), want)
		}
	}
	// String and Tail see the same logical (oldest-first) order.
	s := l.String()
	if strings.Contains(s, "e5") || !strings.Contains(s, "e6") {
		t.Fatalf("String holds stale entries:\n%s", s)
	}
	if strings.Index(s, "e6") > strings.Index(s, "e9") {
		t.Fatalf("String order wrong:\n%s", s)
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].Name != "e8" || tail[1].Name != "e9" {
		t.Fatalf("tail = %+v", tail)
	}
	if l.CountByName("e9") != 1 || l.CountByName("e0") != 0 {
		t.Fatal("CountByName sees overwritten entries")
	}
}

// TestRingEventLogUnderCapacity: a ring that never fills keeps every
// event in recording order.
func TestRingEventLogUnderCapacity(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		l.Record(sim.Time(i), fmt.Sprintf("e%d", i), "x")
	}
	if l.Len() != 5 || l.Overwritten() != 0 {
		t.Fatalf("len=%d overwritten=%d", l.Len(), l.Overwritten())
	}
	if evs := l.Events(); evs[0].Name != "e0" || evs[4].Name != "e4" {
		t.Fatalf("order wrong: %+v", evs)
	}
}

// driveRing runs ops on a Ring[int] of the given capacity whose overwrite
// count starts at start, and checks it after every op against a plain
// slice of every value added. An op below 0xc0 adds the step number and
// checks what Add evicted; any other op calls Append with an n from -16
// to 47, so negative and oversized n come up on every capacity.
func driveRing(t *testing.T, capacity int, start uint64, ops []byte) {
	t.Helper()
	r := NewRing[int](capacity)
	r.over = start
	var model []int
	for step, op := range ops {
		if op < 0xc0 {
			old, evicted := r.Add(step)
			model = append(model, step)
			if k := len(model) - capacity - 1; evicted != (k >= 0) || evicted && old != model[k] || !evicted && old != 0 {
				t.Fatalf("cap %d, add %d: Add returned (%d, %v); added so far %v", capacity, step, old, evicted, model)
			}
		}
		kept := model[max(0, len(model)-capacity):]
		if op >= 0xc0 {
			n := int(op&0x3f) - 16
			want := append([]int{-1}, kept[len(kept)-min(max(n, 0), len(kept)):]...)
			if got := r.Append([]int{-1}, n); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cap %d, Append(n=%d) = %v, want %v", capacity, n, got, want)
			}
		}
		if r.Len() != len(kept) {
			t.Fatalf("cap %d after %d adds: Len %d, want %d", capacity, len(model), r.Len(), len(kept))
		}
		if over := start + uint64(len(model)-len(kept)); r.Overwritten() != over {
			t.Fatalf("cap %d after %d adds: Overwritten %d, want %d", capacity, len(model), r.Overwritten(), over)
		}
		for i, v := range kept {
			if got := r.At(i); got != v {
				t.Fatalf("cap %d after %d adds: At(%d) = %d, want %d", capacity, len(model), i, got, v)
			}
		}
	}
}

// TestRingMatchesModel drives rings of capacity 1 to 9 with random adds
// and reads against the slice model, once from a zero overwrite count and
// once from just below 2^32, so the count crosses the 32-bit boundary.
func TestRingMatchesModel(t *testing.T) {
	for _, start := range []uint64{0, 1<<32 - 5} {
		for capacity := 1; capacity <= 9; capacity++ {
			rng := sim.NewRNG(uint64(capacity) + start)
			ops := make([]byte, 300)
			for i := range ops {
				ops[i] = byte(rng.IntN(256))
			}
			driveRing(t, capacity, start, ops)
		}
	}
	r := NewRing[int](2)
	for v := range 3 { // wrapped: the oldest entry is in the last slot
		r.Add(v)
	}
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) on a ring of two entries did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

// FuzzRing drives the ring against the slice model: the first byte picks
// the capacity (1 to 9), the second's low bit an overwrite count starting
// at 0 or just below 2^32, and the rest are driveRing's ops.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0xc0, 0xd1, 3, 0xff})
	f.Add([]byte{3, 1, 1, 2, 3, 4, 5, 0xd0, 6, 7, 0xc5, 0xd3, 0xff})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0xd8, 0xd9, 0xd4, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		start := uint64(0)
		if data[1]&1 == 1 {
			start = 1<<32 - 5
		}
		driveRing(t, 1+int(data[0])%9, start, data[2:])
	})
}

package sched

import (
	"math/rand/v2"
	"testing"
)

// TestCoreSetMatchesModel drives a CoreSet with random adds and removes at
// sizes on both sides of a word boundary, and checks every Next against a
// scan of a []bool model.
func TestCoreSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		s, model := NewCoreSet(n), make([]bool, n)
		for op := 0; op < 20*n; op++ {
			i := rng.IntN(n)
			if model[i] = rng.IntN(2) == 0; model[i] {
				s.Add(i)
			} else {
				s.Remove(i)
			}
			for from := 0; from <= n; from++ {
				want := -1
				for j := from; j < n; j++ {
					if model[j] {
						want = j
						break
					}
				}
				if got := s.Next(from); got != want {
					t.Fatalf("n=%d: Next(%d) = %d, want %d", n, from, got, want)
				}
			}
		}
	}
}

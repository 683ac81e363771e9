package main

import (
	"fmt"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads this program prints match the ones a stability check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and its label ("p99" for 1000 samples). With 20 samples or
// fewer that percentile is not above the median; tail then returns the
// maximum, labelled "max".
func tail(xs []float64) (label string, v float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return "max", 0
	}
	if n <= 20 {
		return "max", s[n-1]
	}
	return fmt.Sprintf("p%d", 100*(n-10)/n), s[n-11]
}

package trace

// Ring is the one bounded store behind every event stream: it grows by
// append up to its capacity, then each Add overwrites the oldest entry
// and counts it. Reads are oldest first. A Ring is not safe for
// concurrent use; EventLog puts a mutex in front of its own.
type Ring[T any] struct {
	buf  []T
	max  int
	next int    // once full, the slot of the oldest entry, which Add overwrites next
	over uint64 // entries overwritten
}

// NewRing returns an empty ring that keeps the newest capacity entries.
// A capacity below 1 panics.
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		panic("trace: ring capacity must be at least 1")
	}
	return Ring[T]{max: capacity}
}

// Add appends v. On a full ring it overwrites the oldest entry and
// returns it with evicted set.
func (r *Ring[T]) Add(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old, r.buf[r.next] = r.buf[r.next], v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	r.over++
	return old, true
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Overwritten returns how many entries Add has evicted.
func (r *Ring[T]) Overwritten() uint64 { return r.over }

// At returns the i-th entry held, oldest first; i out of [0, Len) panics.
func (r *Ring[T]) At(i int) T {
	if uint(i) >= uint(len(r.buf)) {
		panic("trace: ring index out of range")
	}
	if i += r.next; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Append appends the newest n entries to dst, oldest first: none when n
// is negative, all of them when n exceeds Len.
func (r *Ring[T]) Append(dst []T, n int) []T {
	n = min(max(n, 0), len(r.buf))
	s := r.next + len(r.buf) - n
	if s >= len(r.buf) {
		s -= len(r.buf)
	}
	if e := s + n; e <= len(r.buf) {
		return append(dst, r.buf[s:e]...)
	}
	dst = append(dst, r.buf[s:]...)
	return append(dst, r.buf[:s+n-len(r.buf)]...)
}

// Package cache implements the set-associative cache simulator behind the
// Figure 11 cache-friendliness experiment (§6.3.2): two single-threaded
// L-apps time-share one core, each repeatedly copying objects from a
// uniformly random working set.
//
// Under separate address spaces (the Caladan configuration) the kernel
// backs each app's pages with arbitrary frames, so both working sets
// spread over every cache set and evict each other across context
// switches. Under VESSEL's shared address space, the SMAS layout
// colours pages (pagesFor) to place the two uProcesses in disjoint
// cache partitions, so each app's working set survives the other's runs.
package cache

import (
	"fmt"

	"vessel/internal/mem"
	"vessel/internal/sim"
)

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	Sets     int
	Ways     int
	LineSize int

	// lines[set][way] holds the cached line tag (addr / LineSize);
	// lru[set][way] the recency stamp.
	lines [][]uint64
	valid [][]bool
	lru   [][]uint64
	tick  uint64

	Hits   uint64
	Misses uint64
}

// New builds a cache. sizeBytes must be sets×ways×lineSize.
func New(sizeBytes, ways, lineSize int) (*Cache, error) {
	if ways <= 0 || lineSize <= 0 || sizeBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry")
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 || sets*ways*lineSize != sizeBytes {
		return nil, fmt.Errorf("cache: %d bytes not divisible into %d-way sets of %d-byte lines",
			sizeBytes, ways, lineSize)
	}
	c := &Cache{Sets: sets, Ways: ways, LineSize: lineSize}
	c.lines = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.lines {
		c.lines[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c, nil
}

// NumColors returns the number of page colours this cache geometry has:
// how many distinct pages map to disjoint set ranges.
func (c *Cache) NumColors() int {
	setsPerPage := mem.PageSize / c.LineSize
	colors := c.Sets / setsPerPage
	if colors < 1 {
		colors = 1
	}
	return colors
}

// Access touches addr, returning true on a hit.
func (c *Cache) Access(addr mem.Addr) bool {
	c.tick++
	line := uint64(addr) / uint64(c.LineSize)
	set := int(line % uint64(c.Sets))
	for w := 0; w < c.Ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == line {
			c.lru[set][w] = c.tick
			c.Hits++
			return true
		}
	}
	c.Misses++
	// LRU victim.
	victim := 0
	for w := 1; w < c.Ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	c.lines[set][victim] = line
	c.valid[set][victim] = true
	c.lru[set][victim] = c.tick
	return false
}

// MissRate returns misses / accesses.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// Reset clears statistics (contents stay, as after a warmup phase).
func (c *Cache) Reset() {
	c.Hits = 0
	c.Misses = 0
}

// Layout describes how an app's working-set pages map to physical frames.
type Layout uint8

// The two layouts Figure 11 compares.
const (
	// LayoutInterleaved: separate address spaces; the kernel hands out
	// frames arbitrarily, so both apps cover every colour.
	LayoutInterleaved Layout = iota
	// LayoutColored: VESSEL's SMAS allocator gives each app a disjoint
	// half of the page colours.
	LayoutColored
)

func (l Layout) String() string {
	if l == LayoutColored {
		return "vessel-colored"
	}
	return "separate-interleaved"
}

// Workload is the object-copy benchmark of §6.3.2.
type Workload struct {
	// WorkingSetBytes per app.
	WorkingSetBytes int
	// ObjectBytes per copy (source read + destination write).
	ObjectBytes int
	// Objects copied per scheduling quantum before the core switches.
	ObjectsPerQuantum int
	// Quanta per app.
	Quanta int
	// ComputePerObject is non-memory work per copied object.
	ComputePerObject sim.Duration
}

// DefaultWorkload returns parameters sized against DefaultCache.
func DefaultWorkload() Workload {
	return Workload{
		WorkingSetBytes:   512 << 10,
		ObjectBytes:       256,
		ObjectsPerQuantum: 64,
		Quanta:            2000,
		ComputePerObject:  400,
	}
}

// DefaultCache returns the modelled shared cache: 1 MiB, 16-way, 64 B
// lines (64 page colours).
func DefaultCache() (*Cache, error) { return New(1<<20, 16, 64) }

// Result is one configuration's outcome.
type Result struct {
	Layout         Layout
	MissRate       float64
	CompletionTime sim.Duration
	Accesses       uint64
}

// pagesFor lays out an app's working-set pages under the given policy.
// appIdx selects the colour partition (colored) or the random frame pool.
func pagesFor(appIdx int, ws int, layout Layout, numColors int, rng *sim.RNG) []mem.Addr {
	npages := (ws + mem.PageSize - 1) / mem.PageSize
	pages := make([]mem.Addr, npages)
	switch layout {
	case LayoutColored:
		// App appIdx gets colours [appIdx*half, (appIdx+1)*half): its
		// pages' set indices never collide with the other app's.
		half := numColors / 2
		for i := range pages {
			color := appIdx*half + i%half
			group := i / half
			pageNo := group*numColors + color
			pages[i] = mem.Addr(pageNo * mem.PageSize)
		}
	default:
		// Separate address spaces: the kernel backs each virtual page
		// with an arbitrary physical frame, so page colours are random.
		// The binomial imbalance across colours oversubscribes some
		// sets beyond the cache's associativity — the source of the
		// steady-state conflict misses Figure 11 measures.
		base := (appIdx + 1) << 30
		for i := range pages {
			frame := rng.IntN(1 << 20)
			pages[i] = mem.Addr(base + frame*mem.PageSize)
		}
	}
	return pages
}

// Run executes the two-app object-copy benchmark on one core under the
// given layout and returns miss rate and completion time.
func Run(c *Cache, w Workload, layout Layout, dramNs, hitNs, switchNs float64, rng *sim.RNG) Result {
	numColors := c.NumColors()
	apps := [2][]mem.Addr{
		pagesFor(0, w.WorkingSetBytes, layout, numColors, rng.Fork(100)),
		pagesFor(1, w.WorkingSetBytes, layout, numColors, rng.Fork(101)),
	}
	var totalNs float64
	var accesses uint64
	linesPerObject := (w.ObjectBytes + c.LineSize - 1) / c.LineSize

	// Warmup: enough quanta that the random object draws cover the whole
	// working set (coupon-collector bound), then reset statistics so
	// cold misses don't drown the steady state.
	warmup := w.Quanta / 10
	if warmup < 250 {
		warmup = 250
	}
	for q := 0; q < warmup+w.Quanta; q++ {
		if q == warmup {
			c.Reset()
			totalNs = 0
			accesses = 0
		}
		app := q % 2
		pages := apps[app]
		for o := 0; o < w.ObjectsPerQuantum; o++ {
			// Pick a random object: source and destination in the
			// app's working set.
			src := pages[rng.IntN(len(pages))] + mem.Addr(rng.IntN(mem.PageSize/w.ObjectBytes)*w.ObjectBytes)
			dst := pages[rng.IntN(len(pages))] + mem.Addr(rng.IntN(mem.PageSize/w.ObjectBytes)*w.ObjectBytes)
			for l := 0; l < linesPerObject; l++ {
				for _, a := range [2]mem.Addr{src, dst} {
					addr := a + mem.Addr(l*c.LineSize)
					accesses++
					if c.Access(addr) {
						totalNs += hitNs
					} else {
						totalNs += dramNs
					}
				}
			}
			totalNs += float64(w.ComputePerObject)
		}
		totalNs += switchNs
	}
	return Result{
		Layout:         layout,
		MissRate:       c.MissRate(),
		CompletionTime: sim.Duration(totalNs),
		Accesses:       accesses,
	}
}

package vessel

import (
	"fmt"

	"vessel/internal/multidomain"
	ivessel "vessel/internal/vessel"
)

// Cluster manages multiple scheduling domains, following §4.1: one domain
// supports at most 13 uProcesses (16 protection keys minus key 0, the
// runtime key and the message-pipe key), so "multiple scheduling domains
// can be used when the number of uProcesses exceeds this limit". Each
// domain owns its own SMAS and cores; the cluster places new uProcesses
// into the first domain with a free key.
type Cluster struct {
	managers  []*Manager
	placement multidomain.Placement
	perDomain []int
	// maxPerDomain is the cluster-side per-domain launch budget:
	// MaxUProcsPerDomain for hardware-keyed domains, higher (or
	// effectively unbounded) when the domains virtualize their keys.
	maxPerDomain int
}

// MaxUProcsPerDomain mirrors the architectural key budget.
const MaxUProcsPerDomain = 13

// NewCluster boots n scheduling domains with the given cores each.
func NewCluster(domains, coresPerDomain int, costs *CostModel) (*Cluster, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("vessel: cluster needs at least one domain")
	}
	c := &Cluster{
		placement:    multidomain.Placement{},
		perDomain:    make([]int, domains),
		maxPerDomain: MaxUProcsPerDomain,
	}
	for i := 0; i < domains; i++ {
		m, err := NewManager(coresPerDomain, costs)
		if err != nil {
			return nil, err
		}
		c.managers = append(c.managers, m)
	}
	return c, nil
}

// NewDenseCluster boots n scheduling domains with virtualized protection
// keys: each domain multiplexes unbounded virtual keys onto the hardware
// slots (DESIGN.md §14), so per-domain capacity is maxPerDomain rather
// than the architectural 13. maxPerDomain ≤ 0 means no cluster-side cap —
// the domain's own (enormous) virtual headroom governs.
func NewDenseCluster(domains, coresPerDomain int, costs *CostModel, maxPerDomain int) (*Cluster, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("vessel: cluster needs at least one domain")
	}
	if maxPerDomain <= 0 {
		maxPerDomain = int(^uint(0) >> 1) // effectively uncapped
	}
	c := &Cluster{
		placement:    multidomain.Placement{},
		perDomain:    make([]int, domains),
		maxPerDomain: maxPerDomain,
	}
	for i := 0; i < domains; i++ {
		m, err := NewManagerVirtual(coresPerDomain, costs)
		if err != nil {
			return nil, err
		}
		c.managers = append(c.managers, m)
	}
	return c, nil
}

// Domains returns the number of domains.
func (c *Cluster) Domains() int { return len(c.managers) }

// Capacity returns how many more uProcesses the cluster can host. Each
// domain contributes the smaller of its cluster-side budget and the
// protection keys actually free in its SMAS — the two can disagree when
// uProcesses were launched directly on a domain's manager, or when
// destroyed regions still await reaping.
func (c *Cluster) Capacity() int {
	total := 0
	for i := range c.managers {
		if free := c.domainFree(i); free > 0 {
			total += free
		}
	}
	return total
}

// domainFree is domain i's placeable headroom: the cluster's own count
// clamped by the domain's free protection keys.
func (c *Cluster) domainFree(i int) int {
	free := c.maxPerDomain - c.perDomain[i]
	if avail := c.managers[i].KeysAvailable(); avail < free {
		free = avail
	}
	return free
}

// Manager returns domain i's manager (to build programs against its gates).
func (c *Cluster) Manager(i int) *Manager { return c.managers[i] }

// DomainOf returns which domain hosts a launched uProcess.
func (c *Cluster) DomainOf(name string) (int, bool) {
	d, ok := c.placement[name]
	return d, ok
}

// Launch places a uProcess into the first domain with a free key. The
// build function receives that domain's manager, because programs are
// assembled against a specific domain's call gates.
func (c *Cluster) Launch(name string, build func(*Manager) (*Program, error), core int) (*UProc, error) {
	if err := c.placement.Claim(name); err != nil {
		return nil, err
	}
	var lastErr error
	for i, m := range c.managers {
		if c.domainFree(i) <= 0 {
			continue
		}
		if m.CoreFenced(core) {
			// The target core was withdrawn by the self-healing layer in
			// this domain; another domain may still be healthy there.
			lastErr = fmt.Errorf("vessel: domain %d: core %d is fenced", i, core)
			continue
		}
		prog, err := build(m)
		if err != nil {
			// A build error is the caller's bug, not a capacity signal:
			// fail the launch with no bookkeeping recorded anywhere.
			return nil, err
		}
		u, err := c.placement.Launch(name, i, m.inner, prog, core)
		if err != nil {
			// The domain refused — e.g. its keys were consumed by
			// uProcesses launched directly on its manager, or the name
			// collides there. perDomain/placement stay untouched for the
			// failed attempt; try the next domain.
			lastErr = err
			continue
		}
		c.perDomain[i]++
		return u, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("vessel: no domain accepted uProcess %q: %w", name, lastErr)
	}
	return nil, fmt.Errorf("vessel: cluster full (%d domains × %d uProcesses)",
		len(c.managers), c.maxPerDomain)
}

// Destroy removes a uProcess and frees its key slot. Termination is lazy
// (§5.1), so the domain is drained until the kill lands before the region
// and key are reclaimed. Capacity stays honest even if the reap fails,
// because domainFree clamps on the SMAS's actual free keys, which an
// unreaped zombie still holds.
func (c *Cluster) Destroy(name string) error {
	i, err := c.placement.Destroy(name, func(i int) *ivessel.Manager { return c.managers[i].inner })
	if i >= 0 {
		c.perDomain[i]--
	}
	return err
}

// Start begins execution on one core of every occupied domain. Occupancy
// is the manager's own count (launched plus unreaped uProcesses), not the
// cluster's launch bookkeeping: a domain populated directly through its
// manager — or still draining zombies — must be stepped even though
// perDomain says zero, and a domain whose uProcesses were all destroyed
// through the manager must not be.
func (c *Cluster) Start(core int) error {
	for _, m := range c.managers {
		if m.Occupancy() == 0 {
			continue
		}
		if err := m.Start(core); err != nil {
			return err
		}
	}
	return nil
}

// Step runs up to n instructions on the given core of every occupied
// domain (occupancy per the manager, as in Start).
func (c *Cluster) Step(core, n int) {
	for _, m := range c.managers {
		if m.Occupancy() > 0 {
			m.Step(core, n)
		}
	}
}

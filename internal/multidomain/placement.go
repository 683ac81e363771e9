package multidomain

import (
	"fmt"

	"vessel/internal/smas"
	"vessel/internal/uproc"
	"vessel/internal/vessel"
)

// Placement records which domain hosts each uProcess ScheduledCluster
// launched: its launch/destroy path. Which domain and core a launch tries
// is the driver's policy.
type Placement map[string]int

// Claim fails if name already lives somewhere in the cluster.
func (p Placement) Claim(name string) error {
	if _, dup := p[name]; dup {
		return fmt.Errorf("vessel: uProcess %q already exists in the cluster", name)
	}
	return nil
}

// Launch loads prog as uProcess name on domain d's manager mg, queued on
// core, and records the placement if mg accepts it.
func (p Placement) Launch(name string, d int, mg *vessel.Manager, prog *smas.Program, core int) (*uproc.UProc, error) {
	u, err := mg.Launch(name, prog, core)
	if err != nil {
		return nil, err
	}
	p[name] = d
	return u, nil
}

// Destroy removes uProcess name from its domain, whose manager manager(d)
// returns. Termination is lazy (§5.1), so the domain is drained to event
// quiescence and then reaped. The name leaves the placement as soon as
// the kill is issued: a drain or reap error must not leave it stuck there
// (the manager no longer knows it, so a retry could never succeed).
func (p Placement) Destroy(name string, manager func(d int) *vessel.Manager) error {
	d, ok := p[name]
	if !ok {
		return fmt.Errorf("vessel: no uProcess %q in the cluster", name)
	}
	mg := manager(d)
	if err := mg.Destroy(name); err != nil {
		return err
	}
	delete(p, name)
	if _, err := mg.DrainZombies(0); err != nil {
		return err
	}
	_, err := mg.Reap()
	return err
}

package multidomain

import (
	"math"
	"sort"
	"sync"

	"vessel/internal/sim"
)

// DetectorConfig tunes the phi-accrual suspicion math.
type DetectorConfig struct {
	// PhiThreshold is the suspicion level at which an entity is flagged
	// (default 8 — roughly "the silence is 10⁸× longer than the survival
	// function predicts").
	PhiThreshold float64
	// MinGap floors the learned mean heartbeat gap, so an entity that
	// beats every instruction cannot talk the detector into microsecond
	// paranoia (default 1µs).
	MinGap sim.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.PhiThreshold <= 0 {
		c.PhiThreshold = 8
	}
	if c.MinGap <= 0 {
		c.MinGap = sim.Microsecond
	}
	return c
}

// entity is one monitored heartbeat stream.
type entity struct {
	id       string
	lastBeat sim.Time
	// meanGap is the running mean inter-beat gap in virtual nanoseconds
	// (Welford's update, mean only — phi-accrual with an exponential
	// survival model needs no variance).
	meanGap float64
	beats   uint64
}

// Detector is a phi-accrual failure detector over virtual time. Heartbeats
// are progress observations (instructions retired, or a healthy idle); the
// suspicion level phi grows with the silence since the last beat, scaled by
// the entity's learned mean gap. Because time is simulated, detection
// latency is a pure function of the run — the property the MTTR gates rely
// on. All methods are safe for concurrent use; iteration orders are
// deterministic (insertion order for Suspects).
type Detector struct {
	mu       sync.Mutex
	cfg      DetectorConfig
	entities map[string]*entity
	order    []string
}

// NewDetector builds an empty detector.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), entities: make(map[string]*entity)}
}

// Track registers (or re-registers, after a recovery) an entity, with its
// heartbeat history reset and the silence clock starting at now.
func (d *Detector) Track(id string, now sim.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entities[id]; !ok {
		d.order = append(d.order, id)
	}
	d.entities[id] = &entity{id: id, lastBeat: now, meanGap: float64(d.cfg.MinGap)}
}

// Forget stops monitoring an entity (a fenced core is no longer anyone's
// responsibility).
func (d *Detector) Forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entities[id]; !ok {
		return
	}
	delete(d.entities, id)
	for i, o := range d.order {
		if o == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Beat records one heartbeat at now and folds the observed gap into the
// learned mean.
func (d *Detector) Beat(id string, now sim.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entities[id]
	if !ok {
		return
	}
	gap := float64(now.Sub(e.lastBeat))
	if gap < float64(d.cfg.MinGap) {
		gap = float64(d.cfg.MinGap)
	}
	e.beats++
	e.meanGap += (gap - e.meanGap) / float64(e.beats)
	if e.meanGap < float64(d.cfg.MinGap) {
		e.meanGap = float64(d.cfg.MinGap)
	}
	e.lastBeat = now
}

// phiLocked computes the suspicion level: with an exponential survival
// model, P(silence > t) = exp(-t/mean), so phi = -log10 P = t/(mean·ln10).
func (d *Detector) phiLocked(e *entity, now sim.Time) float64 {
	elapsed := float64(now.Sub(e.lastBeat))
	if elapsed <= 0 {
		return 0
	}
	return elapsed / (e.meanGap * math.Ln10)
}

// Phi returns the current suspicion level for an entity (0 if untracked).
func (d *Detector) Phi(id string, now sim.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entities[id]; ok {
		return d.phiLocked(e, now)
	}
	return 0
}

// Suspect reports whether an entity's phi exceeds the threshold.
func (d *Detector) Suspect(id string, now sim.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entities[id]
	return ok && d.phiLocked(e, now) > d.cfg.PhiThreshold
}

// Suspects returns all entities over threshold, in registration order.
func (d *Detector) Suspects(now sim.Time) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, id := range d.order {
		if d.phiLocked(d.entities[id], now) > d.cfg.PhiThreshold {
			out = append(out, id)
		}
	}
	return out
}

// LastBeat returns when an entity last beat (false if untracked).
func (d *Detector) LastBeat(id string) (sim.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entities[id]; ok {
		return e.lastBeat, true
	}
	return 0, false
}

// Tracked returns the monitored entity IDs, sorted.
func (d *Detector) Tracked() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]string(nil), d.order...)
	sort.Strings(out)
	return out
}

package sched

import (
	"vessel/internal/obs"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Activity classifies what a core is doing, for the cycle breakdown: the
// five obs categories that partition core time.
type Activity = obs.Category

const (
	ActIdle    = obs.CatIdle
	ActApp     = obs.CatApp
	ActRuntime = obs.CatRuntime
	ActKernel  = obs.CatKernel
	ActSwitch  = obs.CatSwitch
)

// coreSpan is a core's open accounting span: the activity it has been in
// since since.
type coreSpan struct {
	act   Activity
	since sim.Time
}

// SetAct moves core into act now and closes its open span, labelled with
// occupant, the app the core held (nil: none). The span is charged to the
// cycle breakdown clipped to the measured interval. When observed, it is
// also recorded as an obs span (unclipped, for the timeline) and charged
// to the cycle-attribution profiler (clipped, so the profile's activity
// buckets exactly partition the measured interval: the conservation oracle
// in internal/conformance depends on every breakdown charge passing
// through here). A switch span is also a sched.switch flight-recorder
// event, the scheduler wakeup→run edge of the journey causal chain.
func (b *Base) SetAct(core int, act Activity, occupant *workload.App) {
	now, s := b.Eng.Now(), &b.cores[core]
	if t0 := s.since; now > t0 {
		label := ""
		if occupant != nil {
			label = occupant.Name
		}
		d := b.clip(t0, now)
		switch s.act {
		case ActIdle:
			b.cycles.IdleNs += d
		case ActApp:
			b.cycles.AppNs += d
		case ActRuntime:
			b.cycles.RuntimeNs += d
		case ActKernel:
			b.cycles.KernelNs += d
		case ActSwitch:
			b.cycles.SwitchNs += d
		}
		if o := b.Cfg.Obs; o != nil {
			o.Span(core, t0, now, s.act, label)
			o.Charge(core, label, s.act, d)
		}
		if t := b.Cfg.Journey; t != nil && s.act == ActSwitch {
			t.Event(t0, "sched.switch", label)
		}
	}
	s.act, s.since = act, now
}

// Act returns the activity core is in.
func (b *Base) Act(core int) Activity { return b.cores[core].act }

// clip returns the portion of [t0, t1) inside the measured interval.
func (b *Base) clip(t0, t1 sim.Time) sim.Duration {
	t0, t1 = max(t0, sim.Time(b.Cfg.Warmup)), min(t1, b.EndAt)
	if t1 <= t0 {
		return 0
	}
	return t1.Sub(t0)
}

// BW tracks aggregate memory-bandwidth demand from the apps currently
// running on cores and converts oversubscription into a service-time
// inflation factor (the simple linear contention model of DESIGN.md §3).
type BW struct {
	// CapacityGBs is the machine's memory bandwidth in GB/s (bytes/ns).
	CapacityGBs float64
	demand      float64
}

// Add registers demand (GB/s).
func (b *BW) Add(gbs float64) { b.demand += gbs }

// Remove deregisters demand.
func (b *BW) Remove(gbs float64) {
	b.demand -= gbs
	if b.demand < 1e-9 {
		b.demand = 0
	}
}

// Demand returns the current aggregate demand in GB/s.
func (b *BW) Demand() float64 { return b.demand }

// Inflation returns the current service-time inflation factor ≥ 1.
func (b *BW) Inflation() float64 {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 1
	}
	return b.demand / b.CapacityGBs
}

// stallPerOversubscription scales DRAM-queueing stalls: mean extra stall
// per request per unit of oversubscription.
const stallPerOversubscription = 2000 // ns

// StallNoise samples the DRAM-queueing stall a request suffers when the
// memory system is oversubscribed: beyond capacity, request latency does
// not just scale by the linear Inflation factor — queueing in the memory
// controller adds heavy-tailed stalls proportional to the oversubscription.
// This is the §6.3.4 motivation for regulating B-app bandwidth at all:
// unregulated membench wrecks the L-app's *tail*, not just its mean.
func (b *BW) StallNoise(rng *sim.RNG) sim.Duration {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 0
	}
	over := b.demand/b.CapacityGBs - 1
	return rng.Exp(sim.Duration(over * stallPerOversubscription))
}

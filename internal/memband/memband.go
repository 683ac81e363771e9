// Package memband implements the memory-bandwidth regulation comparison of
// §6.3.4 / Figure 13b: a single-threaded membench workload whose bandwidth
// consumption must be throttled to a target fraction, regulated by
//
//   - VESSEL: duty-cycling the thread's core at microsecond granularity
//     with sub-µs context switches — a closed loop on measured consumption;
//   - Intel MBA: the hardware delay-insertion throttle, whose level→actual
//     mapping is coarse and non-linear (low settings deliver far more
//     bandwidth than requested);
//   - Linux cgroup (CFS cpu shares): work-conserving weights that impose no
//     cap at all while the machine has idle cycles — the thread runs at
//     full tilt regardless of the configured share.
//
// Each regulator returns the measured average consumption so the harness
// can plot measured-vs-target accuracy.
package memband

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/sim"
)

// Config parameterises one regulation run.
type Config struct {
	Costs *cpu.CostModel
	// Duration of the measured interval.
	Duration sim.Duration
	Seed     uint64
	// DemandGBs is membench's unthrottled single-thread bandwidth during
	// memory phases; MemFrac the fraction of runtime in them.
	DemandGBs float64
	MemFrac   float64
}

// Validate fills defaults.
func (c *Config) Validate() error {
	if c.Costs == nil {
		c.Costs = cpu.Default()
	}
	if c.Duration <= 0 {
		return fmt.Errorf("memband: duration must be positive")
	}
	if c.DemandGBs <= 0 {
		return fmt.Errorf("memband: demand must be positive")
	}
	if c.MemFrac <= 0 || c.MemFrac > 1 {
		return fmt.Errorf("memband: memfrac must be in (0,1]")
	}
	return nil
}

// NaturalGBs returns the unregulated average consumption.
func (c Config) NaturalGBs() float64 { return c.DemandGBs * c.MemFrac }

// Measurement is one (target, actual) point.
type Measurement struct {
	Regulator  string
	TargetFrac float64 // of natural consumption
	TargetGBs  float64
	ActualGBs  float64
}

// ErrorFrac is |actual−target|/target.
func (m Measurement) ErrorFrac() float64 {
	if m.TargetGBs == 0 {
		return 0
	}
	d := m.ActualGBs - m.TargetGBs
	if d < 0 {
		d = -d
	}
	return d / m.TargetGBs
}

// Regulator throttles membench to a target fraction of its natural
// bandwidth and reports what it actually consumed.
type Regulator interface {
	Name() string
	Regulate(targetFrac float64, cfg Config) (Measurement, error)
}

// ---- VESSEL ----------------------------------------------------------------

// Vessel duty-cycles the core at window granularity with a closed loop on
// measured consumption (§6.3.4: "assign an application fine-grained CPU
// quota for accurately regulating its memory bandwidth consumption").
type Vessel struct{}

// vesselWindow is VESSEL's control interval; the paper's scheduler reacts
// at sub-µs timescale.
const vesselWindow = 1 * sim.Microsecond

// Name returns "VESSEL".
func (Vessel) Name() string { return "VESSEL" }

// Regulate runs the duty-cycle control loop in virtual time.
func (v Vessel) Regulate(targetFrac float64, cfg Config) (Measurement, error) {
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}
	natural := cfg.NaturalGBs()
	target := targetFrac * natural
	switchCost := cfg.Costs.VesselParkSwitch

	// Discrete control loop: each window, run or park the thread based
	// on whether cumulative consumption is above target. Consumption is
	// demand×memfrac while running; toggling costs a gate trip during
	// which no work (or traffic) happens.
	var consumedBytes float64 // GB·ns (bytes = GBs × ns)
	var elapsed sim.Duration
	running := true
	for elapsed < cfg.Duration {
		cum := consumedBytes / float64(elapsed+vesselWindow)
		wantRun := cum < target
		if wantRun != running {
			// Pay the userspace switch; the window shrinks.
			running = wantRun
			run := vesselWindow - switchCost
			if running {
				consumedBytes += natural * float64(run)
			}
			elapsed += vesselWindow
			continue
		}
		if running {
			consumedBytes += natural * float64(vesselWindow)
		}
		elapsed += vesselWindow
	}
	actual := consumedBytes / float64(elapsed)
	return Measurement{
		Regulator:  v.Name(),
		TargetFrac: targetFrac,
		TargetGBs:  target,
		ActualGBs:  actual,
	}, nil
}

// ---- Intel MBA -------------------------------------------------------------

// MBA models Intel Memory Bandwidth Allocation: throttle levels insert
// delays between requests, but the level→bandwidth mapping is coarse and
// strongly non-linear — the published curves deliver far more bandwidth
// than the configured percentage at low settings. The table below follows
// the shape Intel documents for delay-value throttling.
type MBA struct{}

// Name returns "Intel-MBA".
func (MBA) Name() string { return "Intel-MBA" }

// mbaCurve maps the configured throttle percentage to the fraction of peak
// bandwidth actually delivered.
var mbaCurve = []struct{ setting, actual float64 }{
	{0.10, 0.34}, {0.20, 0.41}, {0.30, 0.49}, {0.40, 0.57},
	{0.50, 0.65}, {0.60, 0.73}, {0.70, 0.81}, {0.80, 0.88},
	{0.90, 0.95}, {1.00, 1.00},
}

// Regulate applies the hardware curve (with linear interpolation between
// documented levels — hardware only accepts 10% steps, so a requested
// target first rounds to the nearest level).
func (m MBA) Regulate(targetFrac float64, cfg Config) (Measurement, error) {
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}
	natural := cfg.NaturalGBs()
	// Round to the nearest supported 10% level.
	level := float64(int(targetFrac*10+0.5)) / 10
	if level < 0.1 {
		level = 0.1
	}
	if level > 1 {
		level = 1
	}
	actualFrac := 1.0
	for _, p := range mbaCurve {
		if level <= p.setting {
			actualFrac = p.actual
			break
		}
	}
	return Measurement{
		Regulator:  m.Name(),
		TargetFrac: targetFrac,
		TargetGBs:  targetFrac * natural,
		ActualGBs:  actualFrac * natural,
	}, nil
}

// ---- Linux cgroup / CFS shares ---------------------------------------------

// CgroupCFS models cpu.weight-based regulation: CFS shares are
// work-conserving, so on a machine with idle cycles the thread keeps
// running — and keeps issuing memory traffic — no matter the weight. Only
// a small scheduling-overhead dent appears at very low weights.
type CgroupCFS struct{}

// Name returns "Linux-CFS".
func (CgroupCFS) Name() string { return "Linux-CFS" }

// Regulate returns near-natural consumption regardless of target.
func (g CgroupCFS) Regulate(targetFrac float64, cfg Config) (Measurement, error) {
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}
	natural := cfg.NaturalGBs()
	// Work-conserving: the weight does nothing without competition.
	// Periodic scheduler ticks cost a sliver of runtime.
	tickLoss := float64(cfg.Costs.CFSSwitchCost) / float64(cfg.Costs.CFSTick)
	actual := natural * (1 - tickLoss)
	return Measurement{
		Regulator:  g.Name(),
		TargetFrac: targetFrac,
		TargetGBs:  targetFrac * natural,
		ActualGBs:  actual,
	}, nil
}

// Package sched defines the common contract every core scheduler in the
// reproduction implements — VESSEL's one-level scheduler and the Caladan,
// Linux CFS and Arachne baselines — plus the shared accounting types the
// experiments consume: per-app throughput and latency, and the machine-wide
// cycle breakdown (application vs runtime vs kernel vs switching vs idle)
// that Figures 1b and 2 plot.
package sched

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"vessel/internal/cpu"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

// Config parameterises one simulated run.
type Config struct {
	Seed  uint64
	Cores int // worker cores managed by the scheduler
	// Duration is the measured interval; Warmup precedes it.
	Duration sim.Duration
	Warmup   sim.Duration
	Apps     []*workload.App
	Costs    *cpu.CostModel
	// BWTargetFrac, when in (0,1), asks the scheduler to regulate the
	// B-apps' memory bandwidth consumption to that fraction of machine
	// bandwidth (Figure 13).
	BWTargetFrac float64
	// Obs, when non-nil, enables the deterministic observability layer:
	// span timelines, cycle-attribution profiling, and the metrics
	// registry (internal/obs). Nil means fully disabled.
	Obs *obs.Observer
	// Journey, when non-nil, enables request-journey tracing
	// (internal/obs/journey): every request is minted a trace context
	// whose critical-path segments sum exactly to its sojourn. Nil means
	// fully disabled; canonical run bytes are identical either way.
	Journey *journey.Tracer
}

// Validate checks a config and fills defaults.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sched: cores must be positive")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sched: duration must be positive")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("sched: warmup must be non-negative")
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("sched: no apps")
	}
	if math.IsNaN(c.BWTargetFrac) {
		return fmt.Errorf("sched: BWTargetFrac is NaN")
	}
	if c.BWTargetFrac < 0 {
		return fmt.Errorf("sched: BWTargetFrac %v is negative", c.BWTargetFrac)
	}
	if c.BWTargetFrac >= 1 {
		return fmt.Errorf("sched: BWTargetFrac %v must be below 1 (0 disables regulation)", c.BWTargetFrac)
	}
	if c.Costs == nil {
		c.Costs = cpu.Default()
	}
	return nil
}

// CycleBreakdown partitions machine time over the measured interval.
type CycleBreakdown struct {
	AppNs     sim.Duration // executing application logic
	RuntimeNs sim.Duration // scheduler/runtime work (polling, stealing, gates)
	KernelNs  sim.Duration // inside the kernel (traps, signals, switches)
	SwitchNs  sim.Duration // userspace switch cost (VESSEL gate path)
	IdleNs    sim.Duration // idle / UMWAIT
}

// Total returns the sum of all categories.
func (c CycleBreakdown) Total() sim.Duration {
	return c.AppNs + c.RuntimeNs + c.KernelNs + c.SwitchNs + c.IdleNs
}

// OverheadFrac returns the fraction of non-idle time not spent on
// application logic — the "CPU cycles not spent executing application
// logic" of Figure 1b.
func (c CycleBreakdown) OverheadFrac() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(c.RuntimeNs+c.KernelNs+c.SwitchNs) / float64(total)
}

// Add accumulates another breakdown.
func (c *CycleBreakdown) Add(o CycleBreakdown) {
	c.AppNs += o.AppNs
	c.RuntimeNs += o.RuntimeNs
	c.KernelNs += o.KernelNs
	c.SwitchNs += o.SwitchNs
	c.IdleNs += o.IdleNs
}

// AppResult is one app's outcome.
type AppResult struct {
	Name      string
	Kind      workload.Kind
	Offered   uint64
	Completed uint64
	// Tput is completed requests over the measured interval (L-apps) or
	// useful CPU time as a rate proxy (B-apps: Count = BUsefulNs).
	Tput stats.Rate
	// Latency summarises request sojourn times (L-apps only).
	Latency stats.Summary
	// BUsefulNs is the CPU time a B-app actually received, deflated by
	// memory contention; BWallNs is the raw wall time it held cores.
	BUsefulNs sim.Duration
	BWallNs   sim.Duration
	// LBusyNs is the core time an L-app spent executing requests —
	// Figure 1b's per-application core consumption.
	LBusyNs sim.Duration
	// NormTput is the app's normalized throughput: L-apps against the
	// machine's ideal capacity, B-apps against owning every core.
	NormTput float64
	// AvgBWGBs is the app's measured memory-bandwidth use (GB/s).
	AvgBWGBs float64
}

// Result is one run's outcome.
type Result struct {
	Scheduler string
	Cores     int
	Measured  sim.Duration
	Apps      []AppResult
	Cycles    CycleBreakdown
	// Switches counts context switches of any kind; Preemptions the
	// involuntary subset; Reallocations cross-app core movements.
	Switches      uint64
	Preemptions   uint64
	Reallocations uint64
	events        uint64 // see Events
}

// Events returns the number of engine callbacks the run fired: the
// simulator's work, not the simulated system's. It is no part of the
// canonical bytes, and a result served from a cache reads 0.
func (r Result) Events() uint64 { return r.events }

// TotalNormTput returns Σ normalized throughput — Figure 1a/9's headline
// metric (1.0 = ideal).
func (r Result) TotalNormTput() float64 {
	var sum float64
	for _, a := range r.Apps {
		sum += a.NormTput
	}
	return sum
}

// App returns the named app's result.
func (r Result) App(name string) (AppResult, bool) {
	for _, a := range r.Apps {
		if a.Name == name {
			return a, true
		}
	}
	return AppResult{}, false
}

// LAppP999 returns the first L-app's P999 latency in ns.
func (r Result) LAppP999() int64 {
	for _, a := range r.Apps {
		if a.Kind == workload.LatencyCritical {
			return a.Latency.P999
		}
	}
	return 0
}

// Canonical renders the result as a stable byte string: every field in a
// fixed order, floats in shortest round-trip form. Two runs of a
// deterministic scheduler with the same config and seed must produce
// byte-identical canonical encodings — the determinism oracle of the
// conformance harness compares exactly these bytes.
func (r Result) Canonical() []byte {
	var b bytes.Buffer
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "scheduler=%s cores=%d measured=%d switches=%d preemptions=%d reallocations=%d\n",
		r.Scheduler, r.Cores, int64(r.Measured), r.Switches, r.Preemptions, r.Reallocations)
	fmt.Fprintf(&b, "cycles app=%d runtime=%d kernel=%d switch=%d idle=%d\n",
		int64(r.Cycles.AppNs), int64(r.Cycles.RuntimeNs), int64(r.Cycles.KernelNs),
		int64(r.Cycles.SwitchNs), int64(r.Cycles.IdleNs))
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "app name=%s kind=%d offered=%d completed=%d tput=%d/%d norm=%s bw=%s\n",
			a.Name, a.Kind, a.Offered, a.Completed, a.Tput.Count, a.Tput.Elapsed,
			g(a.NormTput), g(a.AvgBWGBs))
		fmt.Fprintf(&b, "  lat n=%d avg=%s p50=%d p90=%d p99=%d p999=%d max=%d\n",
			a.Latency.Count, g(a.Latency.Avg), a.Latency.P50, a.Latency.P90,
			a.Latency.P99, a.Latency.P999, a.Latency.Max)
		fmt.Fprintf(&b, "  b useful=%d wall=%d lbusy=%d\n",
			int64(a.BUsefulNs), int64(a.BWallNs), int64(a.LBusyNs))
	}
	return b.Bytes()
}

// Scheduler runs a configured workload and reports the outcome.
type Scheduler interface {
	Name() string
	Run(cfg Config) (Result, error)
}

// postRunHooks observe — and, in tests, may deliberately tamper with —
// every result produced through Run. They are the oracle hook point of the
// conformance harness: planting a violation here proves the oracles and the
// shrinker can catch and minimise one.
var postRunHooks []func(Config, *Result)

// RegisterPostRunHook installs f and returns a function that removes it.
// Hook registration is not safe for concurrent use; register hooks in test
// or driver setup, before runs start.
func RegisterPostRunHook(f func(Config, *Result)) (remove func()) {
	postRunHooks = append(postRunHooks, f)
	i := len(postRunHooks) - 1
	return func() { postRunHooks[i] = nil }
}

// Run executes s on cfg and passes the result through the registered
// post-run hooks. Conformance tooling routes every scheduler run through
// this wrapper so oracles observe exactly what callers would see.
func Run(s Scheduler, cfg Config) (Result, error) {
	res, err := s.Run(cfg)
	if err != nil {
		return res, err
	}
	for _, f := range postRunHooks {
		if f != nil {
			f(cfg, &res)
		}
	}
	return res, nil
}

// IdealLCapacity returns the machine's ideal L-app service capacity in
// requests/second: cores divided by mean service time, with zero overhead.
// Normalized L throughput is measured against this.
func IdealLCapacity(cores int, dist workload.ServiceDist) float64 {
	mean := dist.Mean()
	if mean <= 0 {
		return 0
	}
	return float64(cores) / mean.Seconds()
}

// Normalize fills the NormTput fields of a result: each L-app against the
// ideal capacity (scaled by the number of L-apps sharing it is NOT applied
// — the paper normalizes each app against running alone on all cores), and
// each B-app against owning all cores for the whole interval.
func Normalize(res *Result, cfg Config) {
	for i := range res.Apps {
		a := &res.Apps[i]
		switch a.Kind {
		case workload.LatencyCritical:
			var dist workload.ServiceDist
			for _, app := range cfg.Apps {
				if app.Name == a.Name {
					dist = app.Dist
				}
			}
			if dist == nil {
				continue
			}
			cap := IdealLCapacity(cfg.Cores, dist)
			if cap > 0 {
				a.NormTput = a.Tput.PerSecond() / cap
			}
		case workload.BestEffort:
			total := sim.Duration(res.Cores) * res.Measured
			if total > 0 {
				a.NormTput = float64(a.BUsefulNs) / float64(total)
			}
		}
	}
}

// Package harness is the unified run-plan layer every sweep-shaped driver
// in the reproduction builds on: the experiments package's figure and table
// regenerators, the conformance scenario sweep, and the chaos seed sweeps.
//
// It separates *what* to run from *how* to run it:
//
//   - RunSpec is a declarative, serializable description of one scheduler
//     run — scheduler, apps, load, cores, seed, duration, cost-model
//     overrides — with a canonical content hash (Hash);
//   - Plan composes RunSpecs, typically from sweep axes (Axes), in the
//     order their results must be folded;
//   - Executor runs independent specs concurrently on a bounded worker
//     pool but addresses every result by its plan index, so folding the
//     results in plan order yields byte-identical output at any
//     parallelism — the property the parallel-determinism oracle in
//     internal/conformance enforces;
//   - Cache stores results content-addressed by spec hash, so re-running
//     a figure re-executes only the cells whose axes (or scheduler epoch)
//     changed.
//
// Each simulated run stays single-threaded and deterministic; the harness
// exploits host cores only *across* independent runs, the way Caladan's
// IOKernel dispatches independent work to idle cores while each core's
// dispatch stays serialized.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// BurstSpec describes an optional ON/OFF arrival modulation.
type BurstSpec struct {
	OnUs   int64   `json:"on_us"`
	OffUs  int64   `json:"off_us"`
	Factor float64 `json:"factor"`
}

// AppSpec describes one application declaratively. Specs — not
// workload.App values — are what plans and scenarios carry, because an App
// accumulates run state (queues, counters, histograms) and must be built
// fresh for every scheduler run.
type AppSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "L" or "B"

	// L-app fields. LoadFrac is the offered load as a fraction of the
	// run's ideal capacity (cores / mean service time).
	Dist     string     `json:"dist,omitempty"` // "memcached" or "silo"
	LoadFrac float64    `json:"load_frac,omitempty"`
	Priority int        `json:"priority,omitempty"`
	Burst    *BurstSpec `json:"burst,omitempty"`

	// B-app fields.
	BWDemand float64 `json:"bw_demand,omitempty"`
	MemFrac  float64 `json:"mem_frac,omitempty"`
}

// ServiceDist resolves the spec's service distribution (L-apps).
func (a AppSpec) ServiceDist() workload.ServiceDist {
	if a.Dist == "silo" {
		return workload.Silo()
	}
	return workload.Memcached()
}

// Build constructs a fresh workload.App for a run on the given core count.
// L-app rates scale with cores: rate = LoadFrac × IdealLCapacity(cores).
func (a AppSpec) Build(cores int) *workload.App {
	switch a.Kind {
	case "L":
		rate := a.LoadFrac * sched.IdealLCapacity(cores, a.ServiceDist())
		app := workload.NewLApp(a.Name, a.ServiceDist(), rate)
		app.Priority = a.Priority
		if a.Burst != nil {
			app.Burst = &workload.Burst{
				OnMean:  sim.Duration(a.Burst.OnUs) * sim.Microsecond,
				OffMean: sim.Duration(a.Burst.OffUs) * sim.Microsecond,
				Factor:  a.Burst.Factor,
			}
		}
		return app
	default:
		return workload.NewBApp(a.Name, a.BWDemand, a.MemFrac)
	}
}

func finite(v float64) bool {
	return !(v != v) && v < 1e308 && v > -1e308
}

// Validate checks the spec against the generation envelope shared with the
// conformance harness; maxPeriodUs bounds burst ON/OFF period lengths.
func (a AppSpec) Validate(maxPeriodUs int64) error {
	if a.Name == "" || len(a.Name) > 32 {
		return fmt.Errorf("harness: app has bad name %q", a.Name)
	}
	switch a.Kind {
	case "L":
		if a.Dist != "memcached" && a.Dist != "silo" {
			return fmt.Errorf("harness: app %q has unknown dist %q", a.Name, a.Dist)
		}
		if !finite(a.LoadFrac) || a.LoadFrac <= 0 || a.LoadFrac > 2 {
			return fmt.Errorf("harness: app %q load %v outside (0,2]", a.Name, a.LoadFrac)
		}
		if a.Priority < 0 || a.Priority > 8 {
			return fmt.Errorf("harness: app %q priority %d outside [0,8]", a.Name, a.Priority)
		}
		if b := a.Burst; b != nil {
			if b.OnUs < 1 || b.OnUs > maxPeriodUs || b.OffUs < 1 || b.OffUs > maxPeriodUs {
				return fmt.Errorf("harness: app %q burst periods outside [1,%d]µs", a.Name, maxPeriodUs)
			}
			if !finite(b.Factor) || b.Factor < 1 || b.Factor > 64 {
				return fmt.Errorf("harness: app %q burst factor %v outside [1,64]", a.Name, b.Factor)
			}
		}
		if a.BWDemand != 0 || a.MemFrac != 0 {
			return fmt.Errorf("harness: L-app %q carries B-app fields", a.Name)
		}
	case "B":
		if !finite(a.BWDemand) || a.BWDemand < 0 || a.BWDemand > 64 {
			return fmt.Errorf("harness: app %q bw demand %v outside [0,64]", a.Name, a.BWDemand)
		}
		if !finite(a.MemFrac) || a.MemFrac < 0 || a.MemFrac > 1 {
			return fmt.Errorf("harness: app %q mem frac %v outside [0,1]", a.Name, a.MemFrac)
		}
		if a.Dist != "" || a.LoadFrac != 0 || a.Priority != 0 || a.Burst != nil {
			return fmt.Errorf("harness: B-app %q carries L-app fields", a.Name)
		}
	default:
		return fmt.Errorf("harness: app %q has unknown kind %q", a.Name, a.Kind)
	}
	return nil
}

// RunSpec declares one scheduler run. Everything a run depends on is a
// field here, so two equal specs produce byte-identical results and the
// canonical hash is a complete cache key.
type RunSpec struct {
	// Scheduler names the implementation, exactly as Scheduler.Name()
	// reports it: "VESSEL", "Caladan", "Caladan-DR-L", "Caladan-DR-H",
	// "Arachne", "Linux".
	Scheduler    string    `json:"scheduler"`
	Seed         uint64    `json:"seed"`
	Cores        int       `json:"cores"`
	DurationNs   int64     `json:"duration_ns"`
	WarmupNs     int64     `json:"warmup_ns"`
	BWTargetFrac float64   `json:"bw_target_frac,omitempty"`
	Apps         []AppSpec `json:"apps"`
	// Costs overrides the calibrated cost model; nil means cpu.Default().
	// The full model serializes into the spec (and therefore the hash),
	// so an ablation that tweaks one constant occupies its own cache
	// cells.
	Costs *cpu.CostModel `json:"costs,omitempty"`
}

// Config materializes the spec into a sched.Config. Apps are built fresh
// on every call: two runs must never share workload.App state.
func (s RunSpec) Config() sched.Config {
	cfg := sched.Config{
		Seed:         s.Seed,
		Cores:        s.Cores,
		Duration:     sim.Duration(s.DurationNs),
		Warmup:       sim.Duration(s.WarmupNs),
		BWTargetFrac: s.BWTargetFrac,
		Costs:        s.Costs,
	}
	if cfg.Costs == nil {
		cfg.Costs = cpu.Default()
	} else {
		cfg.Costs = cfg.Costs.Clone() // runs must not share a mutable model
	}
	for _, a := range s.Apps {
		cfg.Apps = append(cfg.Apps, a.Build(s.Cores))
	}
	return cfg
}

// hashFormat versions the canonical encoding; bump it when the spec schema
// or result serialization changes incompatibly, invalidating every cache.
const hashFormat = 1

// Hash returns the spec's canonical content hash: SHA-256 over the format
// version, the named scheduler's implementation epoch, and the spec's
// canonical JSON. Two specs hash equal iff every axis — scheduler, seed,
// cores, durations, apps, cost model — is equal.
func (s RunSpec) Hash() string {
	return HashKey("runspec", schedulerEpoch(s.Scheduler), s)
}

// HashKey builds a content hash for an arbitrary cacheable computation:
// a kind tag (namespacing the key space), an implementation epoch, and the
// key's canonical JSON. encoding/json renders struct fields in declaration
// order and map keys sorted, so the encoding — and the hash — is a pure
// function of the key's value.
func HashKey(kind string, epoch int, key any) string {
	b, err := json.Marshal(key)
	if err != nil {
		// Keys are plain data structs; a marshal failure is a programming
		// error in the caller, not a runtime condition.
		panic(fmt.Sprintf("harness: unhashable %s key: %v", kind, err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "v%d %s epoch%d ", hashFormat, kind, epoch)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Plan is an ordered list of runs. Order matters: the executor may run
// specs in any interleaving, but results are always folded in plan order.
type Plan struct {
	Specs []RunSpec
}

// Add appends a spec and returns its plan index.
func (p *Plan) Add(s RunSpec) int {
	p.Specs = append(p.Specs, s)
	return len(p.Specs) - 1
}

// Len returns the number of specs.
func (p *Plan) Len() int { return len(p.Specs) }

// Axes composes a Plan from sweep axes: the cartesian product
// schedulers × loads × seeds, in that nesting order (seeds fastest).
// Build maps one grid cell to its spec; returning false skips the cell
// (per-system load caps, for example). Empty axes default to a single
// zero-valued point, so one-axis sweeps list only the axis they vary.
type Axes struct {
	Schedulers []string
	Loads      []float64
	Seeds      []uint64
	Build      func(scheduler string, load float64, seed uint64) (RunSpec, bool)
}

// Plan expands the axes into an ordered plan.
func (a Axes) Plan() Plan {
	scheds := a.Schedulers
	if len(scheds) == 0 {
		scheds = []string{""}
	}
	loads := a.Loads
	if len(loads) == 0 {
		loads = []float64{0}
	}
	seeds := a.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	var p Plan
	for _, s := range scheds {
		for _, lf := range loads {
			for _, seed := range seeds {
				if spec, ok := a.Build(s, lf, seed); ok {
					p.Add(spec)
				}
			}
		}
	}
	return p
}

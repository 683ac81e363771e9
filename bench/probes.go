package main

import (
	"fmt"
	"time"

	"vessel"
	"vessel/internal/sim"
	"vessel/internal/stats"
	iworkload "vessel/internal/workload"
)

// A probe times one layer's public functions in isolation, sized from the
// workload where a size matters. Each returns host ns per unit of work.
// Probes run only in traced runs, after the timed passes.
type probe struct {
	name string
	run  func(w *workload) (float64, error)
}

var probes = []probe{
	{"sim.ns_per_event", probeSimEvent},
	{"workload.ns_per_arrival", probeArrival},
	{"stats.ns_per_record", probeRecord},
	{"cpu.ns_per_instr", probeInstr},
	{"uproc.ns_per_park", probePark},
	{"vpkey.ns_per_switch", probeVKeySwitch},
}

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 5

func nsPer(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeSimEvent is a hold model over Engine.At/Step: the pending depth
// stays at twice the workload's cores, and every fired event re-arms
// itself an exponential delay later.
func probeSimEvent(w *workload) (float64, error) {
	const n = 400_000
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	var fire func()
	fire = func() { eng.After(rng.Exp(sim.Microsecond), fire) }
	for i := 0; i < 2*w.cores; i++ {
		eng.At(sim.Time(rng.Exp(sim.Microsecond)), fire)
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		eng.Step()
	}
	return nsPer(time.Since(t), n), nil
}

// probeArrival generates memcached arrivals on a bare engine, with a
// consumer that dequeues and completes each request as it arrives.
func probeArrival(*workload) (float64, error) {
	app := iworkload.NewLApp("memcached", iworkload.Memcached(), 1e6)
	eng := sim.NewEngine()
	until := sim.Time(200 * sim.Millisecond)
	err := app.GenerateArrivals(eng, sim.NewRNG(1), until, func(*iworkload.Request) {
		r := app.Dequeue()
		r.Done = eng.Now()
		app.Complete(r, 0)
	})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	eng.Run(until)
	if app.Offered == 0 {
		return 0, fmt.Errorf("no arrivals")
	}
	return nsPer(time.Since(t), app.Offered), nil
}

// probeRecord records exponentially distributed latencies into a
// Histogram.
func probeRecord(*workload) (float64, error) {
	const n = 2_000_000
	rng := sim.NewRNG(1)
	vals := make([]int64, 1<<12)
	for i := range vals {
		vals[i] = int64(rng.Exp(20 * sim.Microsecond))
	}
	h := stats.NewHistogram()
	t := time.Now()
	for i := 0; i < n; i++ {
		h.Record(vals[i&(len(vals)-1)])
	}
	return nsPer(time.Since(t), n), nil
}

// probeInstr runs a Compute-only loop on a standalone one-core Manager.
func probeInstr(*workload) (float64, error) {
	m, err := vessel.NewManager(1, nil)
	if err != nil {
		return 0, err
	}
	prog, err := m.NewProgram("compute").Forever(func(b *vessel.ProgramBuilder) { b.Compute(100) }).Build()
	if err != nil {
		return 0, err
	}
	if _, err := m.Launch("compute", prog, 0); err != nil {
		return 0, err
	}
	if err := m.Start(0); err != nil {
		return 0, err
	}
	m.Step(0, 1000)
	t := time.Now()
	ran := m.Step(0, 2_000_000)
	d := time.Since(t)
	if ran == 0 {
		return 0, fmt.Errorf("core ran no instructions")
	}
	return nsPer(d, uint64(ran)), nil
}

// parks launches n park loops on core 0 of m, runs the core, and returns
// host ns per park (voluntary switch).
func parks(m *vessel.Manager, n int) (float64, error) {
	for i := 0; i < n; i++ {
		prog, err := parkLoop(500)(m)
		if err != nil {
			return 0, err
		}
		if _, err := m.Launch(fmt.Sprintf("loop%d", i), prog, 0); err != nil {
			return 0, err
		}
	}
	if err := m.Start(0); err != nil {
		return 0, err
	}
	m.Step(0, 1000)
	before, _ := m.Stats(0)
	t := time.Now()
	m.Step(0, 300_000)
	d := time.Since(t)
	after, _ := m.Stats(0)
	if after == before {
		return 0, fmt.Errorf("core never parked")
	}
	return nsPer(d, after-before), nil
}

// probePark runs two park loops on one core: every park is a call-gate
// switch to the other uProcess.
func probePark(*workload) (float64, error) {
	m, err := vessel.NewManager(1, nil)
	if err != nil {
		return 0, err
	}
	return parks(m, 2)
}

// probeVKeySwitch runs 16 park loops on one core of a virtual-key
// Manager: more uProcesses than hardware key slots, so the LRU evicts and
// refills keys as the core cycles through them — the thrash path the heavy
// cluster domains take.
func probeVKeySwitch(*workload) (float64, error) {
	m, err := vessel.NewManagerVirtual(1, nil)
	if err != nil {
		return 0, err
	}
	return parks(m, 16)
}

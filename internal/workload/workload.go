// Package workload implements the paper's workloads (§6.1):
//
//   - memcached with Facebook's USR distribution: reads and writes with a
//     1 µs average service time, Poisson arrivals;
//   - Silo under TPC-C: high service-time variability, 20 µs median and
//     280 µs at the 99.9th percentile;
//   - Linpack: a CPU-bound best-effort batch job whose throughput is
//     proportional to the CPU time it receives;
//   - membench: a memory-intensive best-effort app alternating memory and
//     compute phases (the AI-recommendation stand-in).
//
// Apps expose open-loop request generation over the simulation engine and
// latency/throughput accounting consumed by every scheduler simulator.
package workload

import (
	"fmt"
	"math"
	"slices"

	"vessel/internal/fifo"
	"vessel/internal/sim"
	"vessel/internal/stats"
)

// Kind distinguishes latency-critical from best-effort applications.
type Kind uint8

const (
	// LatencyCritical apps serve request streams and are measured by
	// tail latency (L-apps).
	LatencyCritical Kind = iota
	// BestEffort apps consume whatever cycles are left (B-apps).
	BestEffort
)

func (k Kind) String() string {
	if k == LatencyCritical {
		return "L-app"
	}
	return "B-app"
}

// ServiceDist samples request service times.
type ServiceDist interface {
	Sample(r *sim.RNG) sim.Duration
	Mean() sim.Duration
}

// ExpDist is an exponential service-time distribution — the memcached-USR
// stand-in with a 1 µs mean.
type ExpDist struct{ M sim.Duration }

// Sample draws a service time.
func (d ExpDist) Sample(r *sim.RNG) sim.Duration { return r.Exp(d.M) }

// Mean returns the distribution mean.
func (d ExpDist) Mean() sim.Duration { return d.M }

// FixedDist is a deterministic service time.
type FixedDist struct{ D sim.Duration }

// Sample returns the fixed service time.
func (d FixedDist) Sample(r *sim.RNG) sim.Duration { return d.D }

// Mean returns the fixed service time.
func (d FixedDist) Mean() sim.Duration { return d.D }

// TPCCDist models Silo/TPC-C service times: log-normal with a 20 µs median
// and 280 µs at P999 (§6.1). Solving exp(µ)=20µs and exp(µ+3.09σ)=280µs
// gives σ = ln(14)/3.09.
type TPCCDist struct{}

var tpccMu = math.Log(20_000)
var tpccSigma = math.Log(14) / 3.0902 // z(0.999) = 3.0902

// Sample draws a TPC-C transaction service time.
func (TPCCDist) Sample(r *sim.RNG) sim.Duration {
	return r.LogNormal(tpccMu, tpccSigma)
}

// Mean returns the log-normal mean exp(µ+σ²/2).
func (TPCCDist) Mean() sim.Duration {
	return sim.Duration(math.Exp(tpccMu + tpccSigma*tpccSigma/2))
}

// Memcached returns the memcached-USR L-app service distribution.
func Memcached() ServiceDist { return ExpDist{M: 1 * sim.Microsecond} }

// Silo returns the Silo/TPC-C L-app service distribution.
func Silo() ServiceDist { return TPCCDist{} }

// Burst configures an ON/OFF modulated Poisson arrival process for the
// bursty-load experiments (Figure 10). Period lengths are exponential with
// the given means. The instantaneous rate is scaled by 2F/(1+F) during ON
// periods and 2/(1+F) during OFF periods, so with OnMean == OffMean the
// long-run average stays exactly the configured rate while ON periods run
// F times hotter than OFF ones.
type Burst struct {
	OnMean  sim.Duration
	OffMean sim.Duration
	Factor  float64
}

// multipliers returns the (on, off) rate scalers. A Factor below 1 (or
// non-finite: NaN/±Inf would poison every downstream gap computation) is
// treated as no modulation.
func (b *Burst) multipliers() (float64, float64) {
	f := b.Factor
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 1 {
		f = 1
	}
	return 2 * f / (1 + f), 2 / (1 + f)
}

// Request is one L-app request: 32 bytes, two to a cache line. It holds
// only what every scheduler model reads; state only one model needs (a
// journey, a control-plane engine key, a preempted request's remainder)
// lives in that model, keyed by Handle. It holds no pointer, so the
// requests of a backlog and the queues of their handles cost the garbage
// collector nothing to scan.
type Request struct {
	// AppIdx is the request's app's index in the run's app table (see
	// App.Attach).
	AppIdx  uint32
	h       uint32 // the request's handle in its Store
	Arrive  sim.Time
	Service sim.Duration
	Done    sim.Time
}

// Sojourn returns the request's total latency.
func (r *Request) Sojourn() sim.Duration { return r.Done.Sub(r.Arrive) }

// Handle returns the request's handle in its Store.
func (r *Request) Handle() uint32 { return r.h }

// ChunkSize is the number of requests in each of a Store's chunks.
const ChunkSize = 256

// Store holds the requests of a run, shared by all its apps, in chunks of
// ChunkSize that never move: a *Request stays valid until its request is
// released. A released request's slot goes on a free list, last released
// first, and is handed out again before the store grows. The list runs
// through the free slots themselves, so releasing allocates nothing.
type Store struct {
	chunks []*[ChunkSize]Request
	free   uint32 // 1 + the handle of the free list's head; 0: empty
	n      uint32 // handles ever issued
}

// Get returns the request with handle h.
func (s *Store) Get(h uint32) *Request { return &s.chunks[h/ChunkSize][h%ChunkSize] }

// alloc returns a zeroed request with its handle set.
func (s *Store) alloc() *Request {
	var h uint32
	if s.free != 0 {
		h = s.free - 1
		s.free = s.Get(h).AppIdx
	} else {
		if h = s.n; h%ChunkSize == 0 {
			s.chunks = append(s.chunks, new([ChunkSize]Request))
		}
		s.n++
	}
	r := s.Get(h)
	*r = Request{h: h}
	return r
}

// release clears r and frees its slot. Every field of r reads zero but
// AppIdx, which links the free list: 1 + the next free handle, or 0.
func (s *Store) release(r *Request) {
	h := r.h
	*r = Request{AppIdx: s.free}
	s.free = h + 1
}

// App is one application instance in an experiment.
type App struct {
	Name string
	Kind Kind

	// L-app parameters.
	Dist  ServiceDist
	RateK float64 // offered load, requests per second
	Burst *Burst
	// Priority orders latency-critical apps for §4.4 preemption: a
	// request of a higher-priority app may preempt a core serving a
	// lower-priority one. Zero is the default; B-apps are always below
	// every L-app.
	Priority int

	// B-app parameters: bandwidth demand while running (bytes/ns, i.e.
	// GB/s) and the fraction of runtime spent in memory phases.
	// Linpack: BWDemand≈0.5, MemFrac≈0.1; membench: BWDemand≈12,
	// MemFrac≈0.7.
	BWDemand float64
	MemFrac  float64

	// q holds the handles of the pending requests the scheduler serves.
	q fifo.Queue[uint32]
	// store holds the app's requests (its own, made on first use, unless
	// Attach shared a run's); idx is the app's index in the run.
	store *Store
	idx   uint32
	// gen is the app's arrival process, once GenerateArrivals starts it.
	gen *arrivalGen

	// Accounting.
	Offered   uint64
	Completed uint64
	Lat       *stats.Histogram
}

// NewLApp builds a latency-critical app.
func NewLApp(name string, dist ServiceDist, ratePerSec float64) *App {
	return &App{
		Name:  name,
		Kind:  LatencyCritical,
		Dist:  dist,
		RateK: ratePerSec,
		Lat:   stats.NewHistogram(),
	}
}

// NewBApp builds a best-effort app. bwDemand is GB/s consumed per running
// core during memory phases; memFrac is the fraction of time in them.
func NewBApp(name string, bwDemand, memFrac float64) *App {
	return &App{
		Name:     name,
		Kind:     BestEffort,
		BWDemand: bwDemand,
		MemFrac:  memFrac,
		Lat:      stats.NewHistogram(),
	}
}

// Linpack returns the paper's CPU-bound B-app.
func Linpack() *App { return NewBApp("linpack", 0.5, 0.05) }

// Membench returns the paper's memory-intensive B-app.
func Membench() *App { return NewBApp("membench", 12.0, 0.7) }

// AvgBW returns the app's average bandwidth demand per running core.
func (a *App) AvgBW() float64 { return a.BWDemand * a.MemFrac }

// Attach makes the app keep its requests in s, shared with the other apps
// of its run, and stamp them with idx, its index in the run's app table.
// Attach it before its first arrival.
func (a *App) Attach(s *Store, idx uint32) {
	a.store, a.idx = s, idx
}

// requests returns the store the app's requests live in.
func (a *App) requests() *Store {
	if a.store == nil {
		a.store = new(Store)
	}
	return a.store
}

// Len returns the number of pending requests.
func (a *App) Len() int { return a.q.Len() }

// Head returns the oldest pending request, or nil.
func (a *App) Head() *Request {
	if a.q.Len() == 0 {
		return nil
	}
	return a.store.Get(a.q.Head())
}

// Requeue appends r, a request of the app's run taken off a queue, at the
// tail without counting it as offered: a stolen request returning.
func (a *App) Requeue(r *Request) { a.q.Push(r.h) }

// RequeueFront re-inserts a preempted in-flight request at the head of the
// queue so it resumes before younger requests.
func (a *App) RequeueFront(r *Request) { a.q.PushFront(r.h) }

// Dequeue pops the oldest pending request, or nil.
func (a *App) Dequeue() *Request {
	if a.q.Len() == 0 {
		return nil
	}
	return a.store.Get(a.q.Pop())
}

// StealNewest removes and returns the most recently enqueued request —
// used by kernel-path models that hold a just-arrived request in a per-core
// receive ring until softirq processing releases it.
func (a *App) StealNewest() *Request {
	if a.q.Len() == 0 {
		return nil
	}
	return a.store.Get(a.q.PopBack())
}

// QueueDelay returns the age of the oldest pending request at time now —
// the queueing-delay signal both Caladan and VESSEL schedulers use (§4.5).
func (a *App) QueueDelay(now sim.Time) sim.Duration {
	if r := a.Head(); r != nil {
		return now.Sub(r.Arrive)
	}
	return 0
}

// Complete records a finished request (if after the measurement start)
// and releases it: r is cleared and its slot kept for a later arrival, so
// read anything else needed from it before calling Complete.
func (a *App) Complete(r *Request, measureFrom sim.Time) {
	a.Completed++
	if r.Arrive >= measureFrom {
		a.Lat.Record(int64(r.Sojourn()))
	}
	a.store.release(r)
}

// Abandon releases r, the request just handed to the app's arrival
// callback and already taken off its queue, without serving it: its
// server can reach neither it nor any later arrival of the app before the
// run ends. Call it from the arrival callback. The app's arrival process
// then builds no more requests: it draws the gaps left up to its horizon,
// bursts included, and only counts them as offered. A replayed trace
// keeps firing; its server drops each later arrival the same way.
func (a *App) Abandon(r *Request) {
	a.store.release(r)
	if a.gen != nil {
		a.gen.abandoned = true
	}
}

// GenerateArrivals schedules the app's Poisson (optionally burst-modulated)
// arrival process on the engine until the given time. onArrival is invoked
// for each arrival after the request is queued.
func (a *App) GenerateArrivals(eng *sim.Engine, rng *sim.RNG, until sim.Time, onArrival func(*Request)) error {
	if a.Kind != LatencyCritical {
		return fmt.Errorf("workload: %s is not latency-critical", a.Name)
	}
	if math.IsNaN(a.RateK) || math.IsInf(a.RateK, 0) {
		// NaN slips past the <= 0 check below, and the float→Duration
		// conversion of 1e9/NaN is undefined; reject explicitly.
		return fmt.Errorf("workload: %s has non-finite rate %v", a.Name, a.RateK)
	}
	if a.RateK <= 0 {
		return nil
	}
	if a.Dist == nil {
		return fmt.Errorf("workload: %s has no service distribution", a.Name)
	}
	if a.Burst != nil && (a.Burst.OnMean <= 0 || a.Burst.OffMean <= 0) {
		// Exp of a non-positive mean is 0, so phase ends would never
		// advance and the catch-up loop below would spin forever.
		return fmt.Errorf("workload: %s burst phase means must be positive (on=%v off=%v)",
			a.Name, a.Burst.OnMean, a.Burst.OffMean)
	}
	g := &arrivalGen{
		app:       a,
		eng:       eng,
		until:     until,
		onArrival: onArrival,
		arrivals:  rng.Fork(1),
		services:  rng.Fork(2),
		bursts:    rng.Fork(3),
		baseGap:   sim.Duration(1e9 / a.RateK), // ns between arrivals at base rate
		factor:    1,
	}
	a.gen = g
	eng.Bind(&g.timer, g.arrive)
	g.nextPhase(0)
	g.schedule(sim.Time(g.arrivals.Exp(g.baseGap)))
	return nil
}

// arrivalGen is one app's arrival process. Its next arrival is a timer
// that re-arms only from its own callback, so an arrival costs no heap
// event and allocates nothing but, once per ChunkSize requests in flight,
// a chunk of its store. Once abandoned (App.Abandon) it counts the rest
// of its arrivals in one loop instead.
type arrivalGen struct {
	app       *App
	eng       *sim.Engine
	until     sim.Time
	onArrival func(*Request)
	timer     sim.Timer // fires g.arrive

	arrivals, services, bursts *sim.RNG
	baseGap                    sim.Duration

	// Burst modulation state.
	factor   float64
	phaseEnd sim.Time
	inOn     bool

	abandoned bool
}

func (g *arrivalGen) nextPhase(now sim.Time) {
	b := g.app.Burst
	if b == nil {
		g.phaseEnd = sim.MaxTime
		return
	}
	onMul, offMul := b.multipliers()
	if g.inOn {
		g.inOn = false
		g.factor = offMul
		g.phaseEnd = now.Add(g.bursts.Exp(b.OffMean))
	} else {
		g.inOn = true
		g.factor = onMul
		g.phaseEnd = now.Add(g.bursts.Exp(b.OnMean))
	}
}

func (g *arrivalGen) schedule(at sim.Time) {
	if at <= g.until {
		g.timer.At(at)
	}
}

func (g *arrivalGen) arrive() {
	a := g.app
	now := g.eng.Now()
	g.enterPhase(now)
	a.arrive(now, a.Dist.Sample(g.services), g.onArrival)
	at := now.Add(g.gap())
	if !g.abandoned {
		g.schedule(at)
		return
	}
	// The arrivals left draw the same gaps and phases, with no request,
	// no service draw and no event.
	for ; at <= g.until; at = at.Add(g.gap()) {
		g.enterPhase(at)
		a.Offered++
	}
}

// enterPhase moves the burst modulation on to the phase that holds now.
func (g *arrivalGen) enterPhase(now sim.Time) {
	for g.app.Burst != nil && now >= g.phaseEnd {
		g.nextPhase(g.phaseEnd)
	}
}

// gap draws the time to the next arrival at the current phase's rate.
func (g *arrivalGen) gap() sim.Duration {
	gap := g.arrivals.Exp(g.baseGap)
	if g.factor != 1 { // x/1 == x, so only bursts pay the division
		gap = sim.Duration(float64(gap) / g.factor)
	}
	return max(gap, 1)
}

// arrive queues a request that arrived at now needing svc of service,
// then tells onArrival (if set) about it.
func (a *App) arrive(now sim.Time, svc sim.Duration, onArrival func(*Request)) {
	r := a.Arrive(now, svc)
	if onArrival != nil {
		onArrival(r)
	}
}

// Arrive queues and returns a request that arrived at now needing svc of
// service, as the arrival processes do for each of theirs. It takes a
// released slot of the app's store when there is one.
func (a *App) Arrive(now sim.Time, svc sim.Duration) *Request {
	r := a.requests().alloc()
	r.AppIdx, r.Arrive, r.Service = a.idx, now, svc
	a.Offered++
	a.Requeue(r)
	return r
}

// Sample forwards to the app's service distribution (helper for
// schedulers that sample work directly).
func (a *App) Sample(r *sim.RNG) sim.Duration { return a.Dist.Sample(r) }

// TracePoint is one recorded arrival for replay: when it arrives and how
// much service it needs.
type TracePoint struct {
	At      sim.Time
	Service sim.Duration
}

// ReplayArrivals schedules an exact recorded arrival trace instead of a
// stochastic process — for regression tests and for replaying captured
// workloads. Points must be in non-decreasing time order.
//
// The trace is one timer stepping through the points. It reserves one
// engine key per point now, in order, so each arrival ties with other
// events at its instant exactly as if every point had been scheduled by
// this call.
func (a *App) ReplayArrivals(eng *sim.Engine, pts []TracePoint, onArrival func(*Request)) error {
	if a.Kind != LatencyCritical {
		return fmt.Errorf("workload: %s is not latency-critical", a.Name)
	}
	var prev sim.Time
	for _, p := range pts {
		if p.At < prev {
			return fmt.Errorf("workload: trace not time-ordered at %v", p.At)
		}
		prev = p.At
	}
	if len(pts) == 0 {
		return nil
	}
	rp := &replay{app: a, pts: slices.Clone(pts), onArrival: onArrival, seq: eng.Reserve()}
	for range pts[1:] {
		eng.Reserve()
	}
	eng.Bind(&rp.timer, rp.arrive)
	rp.timer.AtSeq(pts[0].At, rp.seq)
	return nil
}

// replay is one recorded trace being replayed: its timer fires for
// pts[next], under the key reserved for it, seq.
type replay struct {
	app       *App
	pts       []TracePoint
	onArrival func(*Request)
	timer     sim.Timer // fires rp.arrive
	next      int
	seq       uint64
}

func (rp *replay) arrive() {
	p := rp.pts[rp.next]
	if rp.next++; rp.next < len(rp.pts) {
		rp.seq++
		rp.timer.AtSeq(rp.pts[rp.next].At, rp.seq)
	}
	rp.app.arrive(p.At, p.Service, rp.onArrival)
}

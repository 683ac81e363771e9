package sched

import (
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

// Base is the run core the scheduler models embed by value: the validated
// config, the engine and clock bounds, the accounting, and the per-app
// tallies that become a Result. A model keeps only its policy state and
// calls these helpers, so every model turns the same events into the same
// bookkeeping.
type Base struct {
	Cfg   Config // validated: Costs is filled in
	Eng   *sim.Engine
	RNG   *sim.RNG
	EndAt sim.Time // end of the measured interval
	BW    BW
	// LApps and BApps split Cfg.Apps by kind, in config order.
	LApps, BApps []*workload.App
	// BWCap is the B-apps' bandwidth budget in GB/s (0 = unlimited).
	BWCap float64

	Switches, Preempts, Reallocs uint64
	tallies                      []tally // parallel to Cfg.Apps
	reqs                         *workload.Store
	// journeys holds each request's journey, indexed by its store
	// handle. Arrivals fills it only when Cfg.Journey is set, so it stays
	// empty on an untraced run.
	journeys []journey.Handle
	tick     sim.Timer // Every's
	// cores holds each core's open span (SetAct); every core starts idle
	// at time 0. cycles sums the closed spans over the measured interval.
	cores  []coreSpan
	cycles CycleBreakdown
}

// tally is one app's core time over the measured interval.
type tally struct {
	lBusy   sim.Duration // L: core time on requests
	bUseful sim.Duration // B: core time deflated by memory contention
	bWall   sim.Duration // B: raw core time held
}

// Init validates cfg and sets up the run core. It schedules nothing.
func (b *Base) Init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	b.Cfg = cfg
	b.Eng = sim.NewEngine()
	b.attachApps()
	b.RNG = sim.NewRNG(cfg.Seed)
	b.EndAt = sim.Time(cfg.Warmup + cfg.Duration)
	b.cores = make([]coreSpan, cfg.Cores)
	b.BW = BW{CapacityGBs: cfg.Costs.MemBWTotal}
	if cfg.BWTargetFrac > 0 {
		b.BWCap = cfg.BWTargetFrac * cfg.Costs.MemBWTotal
	}
	for _, a := range cfg.Apps {
		if a.Kind == workload.LatencyCritical {
			b.LApps = append(b.LApps, a)
		} else {
			b.BApps = append(b.BApps, a)
		}
	}
	b.tallies = make([]tally, len(cfg.Apps))
	return nil
}

// attachApps numbers Cfg.Apps and gives them one request store, so a
// request names its app by index (AppOf) and a queue names its requests
// by handle (Req).
func (b *Base) attachApps() {
	b.reqs = new(workload.Store)
	for i, a := range b.Cfg.Apps {
		a.Attach(b.reqs, uint32(i))
	}
}

// AppOf returns req's app.
func (b *Base) AppOf(req *workload.Request) *workload.App { return b.Cfg.Apps[req.AppIdx] }

// Req returns the request with handle h.
func (b *Base) Req(h uint32) *workload.Request { return b.reqs.Get(h) }

// J returns req's journey: nil, at the cost of one compare (it inlines),
// when journey tracing is off.
func (b *Base) J(req *workload.Request) *journey.Journey {
	if h := req.Handle(); int(h) < len(b.journeys) {
		return b.Cfg.Journey.Resolve(b.journeys[h])
	}
	return nil
}

// Arrivals starts app's arrival process on a fork of the run's RNG labelled
// by salt and the app's name length. On a traced run it mints each
// request's journey before fn sees it; a request the tracer does not
// sample gets the zero handle, so a recycled store slot never resolves to
// its previous request's journey.
func (b *Base) Arrivals(app *workload.App, salt uint64, fn func(*workload.Request)) error {
	onArrival := fn
	if t := b.Cfg.Journey; t != nil {
		onArrival = func(req *workload.Request) {
			h := int(req.Handle())
			for h >= len(b.journeys) {
				b.journeys = append(b.journeys, 0)
			}
			b.journeys[h] = t.Mint(app.Name, req.Arrive).Handle()
			fn(req)
		}
	}
	return app.GenerateArrivals(b.Eng, b.RNG.Fork(uint64(len(app.Name))+salt), b.EndAt, onArrival)
}

// Elides reports whether the run releases unserved each arrival its
// server can never reach before EndAt (workload.App.Abandon). A traced
// run keeps every arrival, because each one mints a journey.
func (b *Base) Elides() bool { return b.Cfg.Journey == nil }

// Every runs fn at time at and then every period after it, up to EndAt.
// It re-arms one bound timer, so a model calls it at most once.
func (b *Base) Every(at sim.Time, period sim.Duration, fn func()) {
	b.Eng.Bind(&b.tick, func() {
		fn()
		if b.Eng.Now() < b.EndAt {
			b.tick.After(period)
		}
	})
	b.tick.At(at)
}

// Served completes req now, after it ran on a core since from: its latency
// is recorded and the core time is charged to its app. req is released.
func (b *Base) Served(req *workload.Request, from sim.Time) {
	now, i := b.Eng.Now(), req.AppIdx
	req.Done = now
	b.J(req).Finish(now)
	b.Cfg.Apps[i].Complete(req, sim.Time(b.Cfg.Warmup))
	b.tallies[i].lBusy += b.clip(from, now)
}

// AccrueB charges B-app app the core it has held since since: wall time,
// and useful time deflated by the current memory contention. It leaves
// the app's bandwidth demand registered.
func (b *Base) AccrueB(app *workload.App, since sim.Time) {
	if useful := b.clip(since, b.Eng.Now()); useful > 0 {
		t := b.tally(app)
		t.bUseful += sim.Duration(float64(useful) / b.BW.Inflation())
		t.bWall += useful
	}
}

// tally returns app's tally; app must be one of Cfg.Apps.
func (b *Base) tally(app *workload.App) *tally {
	i := 0
	for b.Cfg.Apps[i] != app {
		i++
	}
	return &b.tallies[i]
}

// Result builds the run's normalized result from the counters and tallies.
func (b *Base) Result(name string) Result {
	d := b.Cfg.Duration
	res := Result{
		Scheduler:     name,
		Cores:         b.Cfg.Cores,
		Measured:      d,
		Cycles:        b.cycles,
		Switches:      b.Switches,
		Preemptions:   b.Preempts,
		Reallocations: b.Reallocs,
		events:        b.Eng.Fired(),
	}
	for i, a := range b.Cfg.Apps {
		t := b.tallies[i]
		ar := AppResult{Name: a.Name, Kind: a.Kind, Offered: a.Offered, Completed: a.Completed}
		if a.Kind == workload.LatencyCritical {
			ar.Latency = a.Lat.Summarize()
			ar.Tput = stats.Rate{Count: a.Lat.Count(), Elapsed: int64(d)}
			ar.LBusyNs = t.lBusy
		} else {
			ar.BUsefulNs, ar.BWallNs = t.bUseful, t.bWall
			ar.Tput = stats.Rate{Count: uint64(t.bUseful), Elapsed: int64(d)}
			// Aggregate bandwidth: per-core demand × average cores held.
			ar.AvgBWGBs = a.AvgBW() * float64(t.bWall) / float64(d)
		}
		res.Apps = append(res.Apps, ar)
	}
	Normalize(&res, b.Cfg)
	return res
}

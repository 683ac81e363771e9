package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vessel"
	"vessel/internal/conformance"
	"vessel/internal/harness"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
	"vessel/internal/sim"
	ivessel "vessel/internal/vessel"
	iworkload "vessel/internal/workload"
)

// workload is one named set of inputs the benchmark times. setup builds a
// fresh pass from the seed (timed as setup_s); the pass's run is timed as
// wall_s; check then verifies its outputs with the timer stopped.
type workload struct {
	name string
	// work names what work_per_s counts: simulated requests completed or
	// simulated uProcess switches (parks + preemptions).
	work string
	// cores is the simulated core count; it sizes the sim.Engine probe.
	cores int
	setup func(seed uint64, short bool, tr *tracer) (pass, error)
}

// pass is one execution of a workload's inputs. Inputs carry run state
// (request queues, histograms, a booted cluster), so every pass is built
// fresh by setup.
type pass interface {
	// run makes every call into the simulator as a step of c.
	run(c *clock)
	// check verifies the outputs once run has returned; tr is non-nil
	// when the pass was traced, and check then adds the workload's own
	// layer metrics.
	check(tr *tracer) outcome
}

// outcome is what check found. An op is one scheduler run, one scenario,
// or one cluster round.
type outcome struct {
	ops, failed int
	work        float64
	digest      [32]byte
	problems    []string
	layer       layerSet
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// series is a layer metric's samples, gathered over the traced passes.
type series struct {
	unit string
	xs   []float64
}

// layerSet maps a layer metric name to its samples.
type layerSet map[string]*series

func (l layerSet) add(name, unit string, xs ...float64) {
	s := l[name]
	if s == nil {
		s = &series{unit: unit}
		l[name] = s
	}
	s.xs = append(s.xs, xs...)
}

func (l layerSet) merge(o layerSet) {
	for name, s := range o {
		l.add(name, s.unit, s.xs...)
	}
}

// defaultSeed is the seed the committed golden digests are taken at.
const defaultSeed = 1

// workloads are the benchmark's inputs. README.md and BENCHMARK.json say
// why each was chosen and which layers it stresses.
var workloads = []*workload{
	{
		name:  "colo-16c",
		work:  "requests",
		cores: 16,
		setup: coloSetup,
	},
	{
		name:  "saturate-44c",
		work:  "requests",
		cores: 44,
		setup: saturateSetup,
	},
	{
		name:  "cluster-8x128",
		work:  "switches",
		cores: 8 * 128,
		setup: clusterSetup,
	},
	{
		name:  "conformance-sweep",
		work:  "requests",
		cores: 12,
		setup: conformanceSetup,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---- scheduler runs: colo-16c and saturate-44c -------------------------

// schedRun is one sched.Run call of a scheduler pass.
type schedRun struct {
	label string // scheduler name, or "VESSEL+journey"
	span  string // span name, built in setup so run allocates nothing
	s     sched.Scheduler
	cfg   sched.Config
	res   sched.Result
	err   error
	at    int // span index (traced passes)
}

type schedPass struct {
	runs []*schedRun
	// journey, when set, is attached to the last run, a VESSEL run whose
	// canonical bytes must equal the plain VESSEL run's (runs[0]).
	journey *journey.Tracer
}

func (p *schedPass) add(label string, s sched.Scheduler, cfg sched.Config) {
	p.runs = append(p.runs, &schedRun{label: label, span: "sched.Run " + label, s: s, cfg: cfg})
}

// memcachedSpec is the fig9/fig12 cell: memcached at loadFrac of ideal
// capacity beside linpack.
func memcachedSpec(system string, seed uint64, cores int, loadFrac float64, dur, warm sim.Duration) harness.RunSpec {
	return harness.RunSpec{
		Scheduler:  system,
		Seed:       seed,
		Cores:      cores,
		DurationNs: int64(dur),
		WarmupNs:   int64(warm),
		Apps: []harness.AppSpec{
			{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: loadFrac},
			{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05},
		},
	}
}

func coloSetup(seed uint64, short bool, _ *tracer) (pass, error) {
	cores, dur, warm := 16, 30*sim.Millisecond, 6*sim.Millisecond
	if short {
		cores, dur, warm = 4, sim.Millisecond, 200*sim.Microsecond
	}
	p := &schedPass{}
	for _, s := range conformance.Systems() {
		p.add(s.Name(), s, memcachedSpec(s.Name(), seed, cores, 0.8, dur, warm).Config())
	}
	p.journey = journey.New()
	cfg := memcachedSpec("VESSEL", seed, cores, 0.8, dur, warm).Config()
	cfg.Journey = p.journey
	p.add("VESSEL+journey", ivessel.Simulator{}, cfg)
	return p, nil
}

func saturateSetup(seed uint64, short bool, _ *tracer) (pass, error) {
	cores, dur, warm := 44, 8*sim.Millisecond, 2*sim.Millisecond
	if short {
		cores, dur, warm = 8, sim.Millisecond, 200*sim.Microsecond
	}
	p := &schedPass{}
	for _, s := range []sched.Scheduler{ivessel.Simulator{}, caladan.Simulator{Variant: caladan.DRLow}} {
		p.add(s.Name(), s, memcachedSpec(s.Name(), seed, cores, 0.9, dur, warm).Config())
	}
	return p, nil
}

func (p *schedPass) run(c *clock) {
	for _, r := range p.runs {
		r.at = c.step(r.span, true, func() { r.res, r.err = sched.Run(r.s, r.cfg) })
	}
}

// requests sums the requests offered to and completed by the run's
// latency-critical apps.
func requests(res sched.Result) (offered, completed uint64) {
	for _, a := range res.Apps {
		if a.Kind == iworkload.LatencyCritical {
			offered += a.Offered
			completed += a.Completed
		}
	}
	return offered, completed
}

func (p *schedPass) check(tr *tracer) outcome {
	o := outcome{layer: layerSet{}}
	h := sha256.New()
	for i, r := range p.runs {
		o.ops++
		if r.err != nil {
			o.failed++
			o.problem("%s: %v", r.label, r.err)
			continue
		}
		vs := conformance.CheckResult(r.label, r.cfg, r.res)
		if p.journey != nil && i == len(p.runs)-1 {
			vs = append(vs, conformance.CheckJourney(r.label, p.journey, r.res)...)
			if plain := p.runs[0].res.Canonical(); string(plain) != string(r.res.Canonical()) {
				vs = append(vs, conformance.Violation{System: r.label, Oracle: "journey-differential",
					Detail: "canonical bytes differ from the plain VESSEL run"})
			}
		}
		if len(vs) > 0 {
			o.failed++
			o.problem("%s: %s", r.label, vs[0])
		}
		fmt.Fprintf(h, "== %s\n", r.label)
		h.Write(r.res.Canonical())
		off, done := requests(r.res)
		o.work += float64(done)
		if tr == nil || off == 0 {
			continue
		}
		if p.journey != nil && i == len(p.runs)-1 {
			o.layer.add("journey.overhead_frac", "frac",
				float64(tr.dur(r.at))/float64(tr.dur(p.runs[0].at))-1)
			continue
		}
		sys := strings.ToLower(r.label)
		n := float64(off)
		o.layer.add(sys+".ns_per_req", "ns", float64(tr.dur(r.at).Nanoseconds())/n)
		o.layer.add(sys+".alloc_b_per_req", "B", float64(tr.spans[r.at].allocB)/n)
		o.layer.add(sys+".switches_per_req", "count", float64(r.res.Switches)/n)
		o.layer.add(sys+".preemptions_per_req", "count", float64(r.res.Preemptions)/n)
	}
	copy(o.digest[:], h.Sum(nil))
	return o
}

// ---- conformance-sweep -------------------------------------------------

// conformanceScenarios is the sweep's size. Scenario shapes (cores, apps,
// loads, bursts, bandwidth targets) come from generator seeds
// defaultSeed … defaultSeed+9 and do not depend on the benchmark seed;
// the seed drives each scenario's request streams. Generated shapes differ
// in host cost by four orders of magnitude, so drawing them from the seed
// would make wall time a property of the seed rather than of the code.
const conformanceScenarios = 10

type conformancePass struct {
	scs     []conformance.Scenario
	reps    []conformance.Report
	errs    []error
	at      []int
	offered uint64
	done    uint64
}

func conformanceSetup(seed uint64, short bool, _ *tracer) (pass, error) {
	n, quick := conformanceScenarios, false
	if short {
		n, quick = 2, true
	}
	p := &conformancePass{reps: make([]conformance.Report, n), errs: make([]error, n), at: make([]int, n)}
	for i := 0; i < n; i++ {
		sc := conformance.Generate(defaultSeed+uint64(i), quick)
		sc.Seed = seed + uint64(i)
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		p.scs = append(p.scs, sc)
	}
	return p, nil
}

func (p *conformancePass) run(c *clock) {
	// Every scheduler run inside the sweep, including determinism reruns
	// and half-load companions, passes through this hook.
	remove := sched.RegisterPostRunHook(func(_ sched.Config, r *sched.Result) {
		off, done := requests(*r)
		p.offered += off
		p.done += done
	})
	defer remove()
	exec := harness.Sequential()
	for i, sc := range p.scs {
		p.at[i] = c.step("conformance.RunScenarioExec", true, func() {
			p.reps[i], p.errs[i] = conformance.RunScenarioExec(sc, exec)
		})
	}
}

func (p *conformancePass) check(tr *tracer) outcome {
	o := outcome{work: float64(p.done), layer: layerSet{}}
	h := sha256.New()
	for i, sc := range p.scs {
		o.ops++
		rep := p.reps[i]
		if p.errs[i] != nil {
			o.failed++
			o.problem("scenario seed %d: %v", sc.Seed, p.errs[i])
			continue
		}
		if rep.Failed() {
			o.failed++
			o.problem("scenario seed %d: %s", sc.Seed, rep.Violations[0])
		}
		fmt.Fprintf(h, "== %s runs=%d\n", sc.Encode(), rep.Runs)
		for _, v := range rep.Violations {
			fmt.Fprintf(h, "violation %s\n", v)
		}
		names := make([]string, 0, len(rep.Results))
		for name := range rep.Results {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write(rep.Results[name].Canonical())
		}
		if tr == nil {
			continue
		}
		o.layer.add("conformance.ms_per_scenario", "ms", float64(tr.dur(p.at[i]).Nanoseconds())/1e6)
		o.layer.add("conformance.runs_per_scenario", "count", float64(rep.Runs))
		// The oracle's cost, replayed on the scenario's first-run results.
		for _, name := range names {
			cfg := sc.Config()
			t := time.Now()
			conformance.CheckResult(name, cfg, rep.Results[name])
			o.layer.add("conformance.oracle_us_per_run", "us", float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	if tr != nil && p.offered > 0 {
		var total time.Duration
		for _, at := range p.at {
			total += tr.dur(at)
		}
		o.layer.add("conformance.ns_per_req", "ns", float64(total.Nanoseconds())/float64(p.offered))
	}
	copy(o.digest[:], h.Sum(nil))
	return o
}

// ---- cluster-8x128 -----------------------------------------------------

// clusterShape sizes the scheduled cluster. Heavy domains (the lower half)
// launch heavy uProcesses per wave and light domains light; waveRounds
// rounds run after each wave, all inside setup. The timed pass runs
// rounds rounds, destroys every uProcess of domain 0 to shift demand, and
// runs rounds rounds again.
type clusterShape struct {
	domains, cores, coresPerNode   int
	waves, heavy, light, waveRound int
	rounds                         int
}

var (
	clusterFull  = clusterShape{domains: 8, cores: 128, coresPerNode: 16, waves: 3, heavy: 24, light: 4, waveRound: 6, rounds: 150}
	clusterShort = clusterShape{domains: 2, cores: 16, coresPerNode: 8, waves: 3, heavy: 6, light: 2, waveRound: 6, rounds: 10}
)

// clusterCounts is a snapshot of the cluster's simulated counters.
type clusterCounts struct {
	parks, preempts           []uint64 // per domain
	cyclesNs                  []float64
	evictions, refills, pages uint64
}

func (c clusterCounts) switches() uint64 {
	var n uint64
	for d := range c.parks {
		n += c.parks[d] + c.preempts[d]
	}
	return n
}

type clusterPass struct {
	shape   clusterShape
	c       *vessel.ScheduledCluster
	victims []string // domain 0's uProcesses, destroyed mid-pass
	before  clusterCounts
	launch  []int // span indexes (traced passes)
	rounds  []int
	destroy []int
	ran     int
	err     error
}

// parkLoop builds a uProcess that computes for the given cycles and parks,
// forever.
func parkLoop(cycles int64) func(*vessel.Manager) (*vessel.Program, error) {
	return func(m *vessel.Manager) (*vessel.Program, error) {
		return m.NewProgram("loop").Forever(func(b *vessel.ProgramBuilder) {
			b.Compute(cycles).Park()
		}).Build()
	}
}

// clusterSetup boots the cluster and launches every uProcess. The seed
// draws each uProcess's compute length, uniform in [400, 600] cycles.
func clusterSetup(seed uint64, short bool, tr *tracer) (pass, error) {
	shape := clusterFull
	if short {
		shape = clusterShort
	}
	p := &clusterPass{shape: shape}
	at := tr.begin("vessel.NewScheduledCluster", false)
	c, err := vessel.NewScheduledCluster(vessel.SchedClusterConfig{
		Domains:      shape.domains,
		Cores:        shape.cores,
		CoresPerNode: shape.coresPerNode,
		Policy:       "fairshare",
		Quantum:      1000,
	})
	tr.end(at)
	if err != nil {
		return nil, err
	}
	p.c = c
	rng := sim.NewRNG(seed)
	for w := 0; w < shape.waves; w++ {
		for d := 0; d < shape.domains; d++ {
			n := shape.light
			if d < shape.domains/2 {
				n = shape.heavy
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("w%d-d%d-%d", w, d, i)
				cycles := int64(400 + rng.IntN(201))
				at := tr.begin("cluster.Launch", false)
				_, err := c.Launch(d, name, parkLoop(cycles))
				tr.end(at)
				if err != nil {
					return nil, fmt.Errorf("launch %s: %w", name, err)
				}
				if tr != nil {
					p.launch = append(p.launch, at)
				}
				if d == 0 {
					p.victims = append(p.victims, name)
				}
			}
		}
		for r := 0; r < shape.waveRound; r++ {
			at := tr.begin("cluster.Run", false)
			err := c.Run(1)
			tr.end(at)
			if err != nil {
				return nil, err
			}
		}
	}
	p.before = p.counts()
	return p, nil
}

func (p *clusterPass) counts() clusterCounts {
	var cc clusterCounts
	for d := 0; d < p.c.Domains(); d++ {
		m := p.c.Manager(d)
		var parks, preempts uint64
		var ns float64
		for core := 0; core < m.NumCores(); core++ {
			pk, pr := m.Stats(core)
			parks += pk
			preempts += pr
			ns += m.CyclesNs(core)
		}
		cc.parks = append(cc.parks, parks)
		cc.preempts = append(cc.preempts, preempts)
		cc.cyclesNs = append(cc.cyclesNs, ns)
		if t := m.VPkey(); t != nil {
			cc.evictions += t.Evictions
			cc.refills += t.Refills
			cc.pages += t.RetaggedPages
		}
	}
	return cc
}

// round runs one cluster round, driven one Run(1) call at a time so that
// traced and untraced passes make the same calls.
func (p *clusterPass) round(c *clock) {
	if p.err != nil {
		return
	}
	at := c.step("cluster.Run", true, func() { p.err = p.c.Run(1) })
	p.ran++
	if c.tr != nil {
		p.rounds = append(p.rounds, at)
	}
}

func (p *clusterPass) run(c *clock) {
	for r := 0; r < p.shape.rounds; r++ {
		p.round(c)
	}
	for _, name := range p.victims {
		if p.err != nil {
			break
		}
		at := c.step("cluster.Destroy", false, func() {
			if err := p.c.Destroy(name); err != nil {
				p.err = fmt.Errorf("destroy %s: %w", name, err)
			}
		})
		if c.tr != nil {
			p.destroy = append(p.destroy, at)
		}
	}
	for r := 0; r < p.shape.rounds; r++ {
		p.round(c)
	}
}

func (p *clusterPass) check(tr *tracer) outcome {
	o := outcome{ops: p.ran, layer: layerSet{}}
	if p.err != nil {
		o.failed = 1
		o.problem("cluster: %v", p.err)
	}
	rep := p.c.Report()
	if vs := conformance.CheckClusterSched("cluster", rep); len(vs) > 0 {
		o.failed = o.ops
		o.problem("cluster: %s", vs[0])
	}
	after := p.counts()
	switches := after.switches() - p.before.switches()
	o.work = float64(switches)
	h := sha256.New()
	h.Write(rep.Canonical())
	for d := range after.parks {
		fmt.Fprintf(h, "d%d parks=%d preemptions=%d cycles_ns=%s\n", d,
			after.parks[d], after.preempts[d], strconv.FormatFloat(after.cyclesNs[d], 'g', -1, 64))
	}
	copy(o.digest[:], h.Sum(nil))
	if tr == nil {
		return o
	}
	us := func(name string, spans []int) {
		for _, at := range spans {
			o.layer.add(name, "us", float64(tr.dur(at).Nanoseconds())/1e3)
		}
	}
	us("cluster.round_us", p.rounds)
	us("cluster.launch_us", p.launch)
	us("cluster.destroy_us", p.destroy)
	o.layer.add("uproc.switches", "count", float64(switches))
	o.layer.add("vpkey.evictions", "count", float64(after.evictions-p.before.evictions))
	o.layer.add("vpkey.retag_pages", "count", float64(after.pages-p.before.pages))
	if switches > 0 {
		o.layer.add("vpkey.refills_per_switch", "count", float64(after.refills-p.before.refills)/float64(switches))
	}
	if moves := rep.CommittedMoves + rep.FailedMoves; moves > 0 {
		o.layer.add("clustersched.commit_frac", "frac", float64(rep.CommittedMoves)/float64(moves))
	}
	o.layer.add("clustersched.ops", "count", float64(len(rep.Ops)))
	o.layer.add("clustersched.actuation_p99_ns", "ns", float64(rep.Actuation.P99))
	return o
}

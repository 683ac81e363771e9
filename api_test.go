package vessel

import (
	"fmt"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/uproc"
)

func TestNewScheduler(t *testing.T) {
	for _, name := range []string{"vessel", "VESSEL", "caladan", "caladan-dr-l", "dr-h", "linux", "cfs", "arachne"} {
		s, err := NewScheduler(name)
		if err != nil || s == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewScheduler("windows"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if len(Schedulers()) != 6 {
		t.Fatalf("schedulers = %d", len(Schedulers()))
	}
	if Schedulers()[0].Name() != "VESSEL" {
		t.Fatal("VESSEL must lead")
	}
}

func TestEndToEndColocation(t *testing.T) {
	// The quickstart path: colocate memcached with Linpack under VESSEL
	// and under Caladan; VESSEL keeps more of the machine.
	run := func(s Scheduler) Result {
		cfg := Config{
			Seed:     7,
			Cores:    8,
			Duration: 20 * Millisecond,
			Warmup:   4 * Millisecond,
			Apps:     []*App{NewMemcached(0.5 * IdealCapacity(8, MemcachedDist())), NewLinpack()},
			Costs:    DefaultCosts(),
		}
		res, err := s.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	v := run(VESSEL())
	c := run(Caladan())
	if v.TotalNormTput() <= c.TotalNormTput() {
		t.Fatalf("VESSEL %.3f should beat Caladan %.3f", v.TotalNormTput(), c.TotalNormTput())
	}
	if v.LAppP999() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestAppConstructors(t *testing.T) {
	if NewMemcached(1e6).Name != "memcached" || NewSilo(1e5).Name != "silo" {
		t.Fatal("names")
	}
	if NewLinpack().Kind == NewMemcached(1).Kind {
		t.Fatal("kinds")
	}
	custom := NewBApp("x", 3, 0.5)
	if custom.AvgBW() != 1.5 {
		t.Fatal("custom B-app")
	}
	l := NewLApp("y", SiloDist(), 100)
	if l.Dist == nil {
		t.Fatal("custom L-app")
	}
	if IdealCapacity(8, MemcachedDist()) != 8e6 {
		t.Fatal("capacity")
	}
	if DefaultCosts().CaladanReallocTotal() != 5300*Nanosecond {
		t.Fatal("cost model")
	}
}

func TestMachineAPIQuickstart(t *testing.T) {
	// The mechanism-level path: two uProcesses ping-pong on one core.
	mgr, err := NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Program {
		p, err := mgr.NewProgram(name).Forever(func(b *ProgramBuilder) {
			b.Compute(500).Park()
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := mgr.Launch("a", mk("a"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Launch("b", mk("b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(0); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 5000)
	parks, _ := mgr.Stats(0)
	if parks < 20 {
		t.Fatalf("parks = %d", parks)
	}
	if mgr.CyclesNs(0) <= 0 {
		t.Fatal("no cycles")
	}
	if err := mgr.Destroy("a"); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 2000)
	ub, _ := mgr.Lookup("b")
	if ub.State != 0 { // UProcRunning
		t.Fatal("b should survive a's destruction")
	}
}

func TestProgramBuilderRepeatAndValidation(t *testing.T) {
	mgr, err := NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mgr.NewProgram("worker").Repeat(10, func(b *ProgramBuilder) {
		b.Compute(100).Park()
	}).Exit().Build()
	if err != nil {
		t.Fatal(err)
	}
	u, err := mgr.Launch("w", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(0); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 5000)
	if u.Threads()[0].State.String() != "dead" {
		t.Fatalf("worker state = %v after Repeat(10)+Exit", u.Threads()[0].State)
	}
	parks, _ := mgr.Stats(0)
	if parks < 10 {
		t.Fatalf("parks = %d, want ≥ 10", parks)
	}
	// Builder validation.
	if _, err := mgr.NewProgram("e").Build(); err == nil {
		t.Fatal("empty program accepted")
	}
	if _, err := mgr.NewProgram("z").Compute(0).Build(); err == nil {
		t.Fatal("zero compute accepted")
	}
	if _, err := mgr.NewProgram("r0").Repeat(0, func(*ProgramBuilder) {}).Build(); err == nil {
		t.Fatal("zero repeat accepted")
	}
	_, err = mgr.NewProgram("nest").Repeat(2, func(b *ProgramBuilder) {
		b.Repeat(2, func(*ProgramBuilder) {})
	}).Build()
	if err == nil {
		t.Fatal("nested repeat accepted")
	}
}

func TestPreemptAPI(t *testing.T) {
	mgr, err := NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	spin, err := mgr.NewProgram("spin").Forever(func(b *ProgramBuilder) {
		b.Compute(100)
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	other, err := mgr.NewProgram("other").Forever(func(b *ProgramBuilder) {
		b.Compute(100).Park()
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Launch("spin", spin, 0); err != nil {
		t.Fatal(err)
	}
	uo, err := mgr.Launch("other", other, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pull "other" off the queue so we can activate it explicitly.
	if err := mgr.Start(0); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 100)
	if err := mgr.Domain.Preempt(0, uproc.SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 500)
	_, preempts := mgr.Stats(0)
	if preempts == 0 {
		t.Fatal("no preemption delivered")
	}
	if uo.Threads()[0].Switches == 0 {
		t.Fatal("other never ran")
	}
}

// TestSelfHealFacade drives the re-exported self-healing surface end to
// end: a supervised cluster, a deterministic fault plan using the new
// kinds, and a clean recovery report.
func TestSelfHealFacade(t *testing.T) {
	c, err := NewSelfHealCluster(SelfHealConfig{Domains: 1, CoresPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		name := fmt.Sprintf("w%d", core)
		err := c.AddWorker(0, name, func(mg *Manager) *Program {
			// The cluster rebuilds workers on restart, so the build
			// function must be re-runnable.
			p, err := mg.NewProgram(name).Forever(func(b *ProgramBuilder) {
				b.Compute(500).Park()
			}).Build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, core, RestartPolicy{})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.InjectFaults(0, FaultPlan{Seed: 1, Faults: []InjectedFault{
		{Kind: FaultCoreStall, Core: 1, At: Time(10 * Microsecond)},
		{Kind: FaultPkeyLeak, At: Time(20 * Microsecond)},
	}})
	rep, err := c.Run(300_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Fences != 1 || rep.PkeysHealed == 0 {
		t.Fatalf("fences=%d healed=%d\n%s", rep.Fences, rep.PkeysHealed, rep.Canonical())
	}
	// The failsafe policy facade stands alone too.
	f := NewFailsafePolicy(FairSharePolicy{}, 1000)
	f.InjectPanic()
	f.Decide(PolicyView{Core: 0, RanFull: true})
	if swapped, reason := f.Swapped(); !swapped || reason != "panic" {
		t.Fatalf("failsafe swap: %v %q", swapped, reason)
	}
	// And the detector.
	det := NewFailureDetector()
	det.Track("c0", 0)
	det.Beat("c0", Time(10*Microsecond))
	if det.Suspect("c0", Time(11*Microsecond)) {
		t.Fatal("healthy entity suspected")
	}
	if !det.Suspect("c0", Time(10*Millisecond)) {
		t.Fatal("silent entity not suspected")
	}
}

// TestManagerAttachObsAndJourney drives the attach path the Observer and
// JourneyTracer docs name: both layers attach to a public Manager, and a
// park loop built with NewProgram lands gate spans in the observer and
// layer-1 gate calls in the tracer's flight recorder.
func TestManagerAttachObsAndJourney(t *testing.T) {
	mgr, err := NewManager(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(0)
	tr := NewJourneyTracer()
	mgr.AttachObs(o)
	mgr.AttachJourney(tr)
	for _, name := range []string{"a", "b"} {
		p, err := mgr.NewProgram(name).Forever(func(b *ProgramBuilder) {
			b.Compute(100).Park()
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Launch(name, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Start(0); err != nil {
		t.Fatal(err)
	}
	mgr.Step(0, 5000)
	if parks, _ := mgr.Stats(0); parks == 0 {
		t.Fatal("park loop never parked")
	}
	gates := 0
	for _, sp := range o.Spans() {
		if sp.Cat == obs.CatGate {
			gates++
		}
	}
	if gates == 0 {
		t.Fatalf("observer recorded no gate spans (%d spans)", len(o.Spans()))
	}
	if len(tr.Flight().Events()) == 0 {
		t.Fatal("journey flight recorder is empty")
	}
}

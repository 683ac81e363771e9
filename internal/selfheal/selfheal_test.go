package selfheal

import (
	"bytes"
	"fmt"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/mem"
	"vessel/internal/multidomain"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/vessel"
)

func parkLoop(mg *vessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// --- Detector ---

func TestDetectorLearnsGapAndSuspects(t *testing.T) {
	d := multidomain.NewDetector(multidomain.DetectorConfig{PhiThreshold: 8, MinGap: sim.Microsecond})
	now := sim.Time(0)
	d.Track("c0", now)
	// Regular 2µs heartbeats: never suspect while beating.
	for i := 0; i < 50; i++ {
		now = now.Add(2 * sim.Microsecond)
		d.Beat("c0", now)
		if d.Suspect("c0", now) {
			t.Fatalf("suspect while beating regularly at beat %d (phi=%.2f)", i, d.Phi("c0", now))
		}
	}
	// Silence: phi grows monotonically and crosses the threshold.
	prev := d.Phi("c0", now)
	for i := 0; i < 100 && !d.Suspect("c0", now); i++ {
		now = now.Add(2 * sim.Microsecond)
		phi := d.Phi("c0", now)
		if phi < prev {
			t.Fatalf("phi not monotone under silence: %f -> %f", prev, phi)
		}
		prev = phi
	}
	if !d.Suspect("c0", now) {
		t.Fatalf("never suspected after %v of silence (phi=%.2f)", now, prev)
	}
	// Detection latency is a bounded multiple of the learned gap:
	// phi > 8 requires elapsed > 8·ln10·mean ≈ 18.4·mean.
	last, _ := d.LastBeat("c0")
	silence := now.Sub(last)
	if silence > 50*sim.Microsecond {
		t.Fatalf("detection took %v, want bounded by ~19 mean gaps", silence)
	}
	// A beat resets suspicion.
	d.Beat("c0", now)
	if d.Suspect("c0", now) {
		t.Fatal("still suspect immediately after a beat")
	}
}

func TestDetectorMinGapFloorsParanoia(t *testing.T) {
	d := multidomain.NewDetector(multidomain.DetectorConfig{PhiThreshold: 8, MinGap: sim.Microsecond})
	now := sim.Time(0)
	d.Track("c0", now)
	// Beats every nanosecond must not shrink the mean below MinGap.
	for i := 0; i < 1000; i++ {
		now = now.Add(1)
		d.Beat("c0", now)
	}
	// 10µs of silence is ~10 MinGaps: phi ≈ 10/ln10 ≈ 4.3 < 8.
	if d.Suspect("c0", now.Add(10*sim.Microsecond)) {
		t.Fatalf("hair-trigger suspicion: MinGap floor not applied (phi=%.2f)",
			d.Phi("c0", now.Add(10*sim.Microsecond)))
	}
	if !d.Suspect("c0", now.Add(60*sim.Microsecond)) {
		t.Fatal("real silence not detected")
	}
}

func TestDetectorForgetAndRetrack(t *testing.T) {
	d := multidomain.NewDetector(multidomain.DetectorConfig{})
	d.Track("c0", 0)
	d.Track("c1", 0)
	if got := d.Suspects(sim.Time(sim.Second)); len(got) != 2 {
		t.Fatalf("suspects = %v, want both", got)
	}
	d.Forget("c0")
	if got := d.Suspects(sim.Time(sim.Second)); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("suspects after forget = %v", got)
	}
	// Re-tracking resets the silence clock.
	d.Track("c0", sim.Time(sim.Second))
	if d.Suspect("c0", sim.Time(sim.Second)) {
		t.Fatal("freshly re-tracked entity already suspect")
	}
}

// TestDetectorConcurrent exercises the detector lock under -race.
func TestDetectorConcurrent(t *testing.T) {
	d := multidomain.NewDetector(multidomain.DetectorConfig{})
	for i := 0; i < 8; i++ {
		d.Track(fmt.Sprintf("c%d", i), 0)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			d.Beat(fmt.Sprintf("c%d", i%8), sim.Time(i)*sim.Time(sim.Microsecond))
		}
		close(done)
	}()
	for i := 0; i < 500; i++ {
		d.Suspects(sim.Time(i) * sim.Time(sim.Microsecond))
		d.Phi("c3", sim.Time(i))
	}
	<-done
}

// --- Cluster recovery, one fault class at a time ---

func newCluster(t *testing.T, domains, cores int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Domains:        domains,
		CoresPerDomain: cores,
		DetectBudget:   500 * sim.Microsecond,
		RestartBudget:  500 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func addParkWorkers(t *testing.T, c *Cluster, domain, cores, perCore int) {
	t.Helper()
	for core := 0; core < cores; core++ {
		for j := 0; j < perCore; j++ {
			name := fmt.Sprintf("d%dw%d", domain, core*perCore+j)
			err := c.AddWorker(domain, name, func(mg *vessel.Manager) *smas.Program {
				return parkLoop(mg, name)
			}, core, vessel.RestartPolicy{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClusterIdleCoreIsHealthy pins the supervision part's beat rule: a
// core with nothing runnable still beats, so an idle core is never
// suspected and fenced.
func TestClusterIdleCoreIsHealthy(t *testing.T) {
	c := newCluster(t, 1, 2)
	addParkWorkers(t, c, 0, 1, 1) // core 1 stays idle
	rep, err := c.Run(400_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fences != 0 || len(rep.Violations) != 0 {
		t.Fatalf("idle core treated as failed: fences=%d violations=%v", rep.Fences, rep.Violations)
	}
	if got := c.Engine().Now(); got < sim.Time(100*sim.Microsecond) {
		t.Fatalf("run covered only %v of virtual time", got)
	}
}

func TestClusterHealsCoreStall(t *testing.T) {
	c := newCluster(t, 1, 2)
	addParkWorkers(t, c, 0, 2, 1)
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CoreStall, Core: 0, At: sim.Time(10 * sim.Microsecond)},
	}})
	rep, err := c.Run(400_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Fences != 1 {
		t.Fatalf("fences = %d, want 1\n%s", rep.Fences, rep.Canonical())
	}
	if !c.Manager(0).CoreFenced(0) {
		t.Fatal("stalled core not fenced")
	}
	// The stalled core's worker was written off and re-homed: it must be
	// running again on the survivor.
	u, ok := c.Manager(0).Lookup("d0w0")
	if !ok {
		t.Fatalf("worker d0w0 lost after stall recovery\n%s", rep.Canonical())
	}
	_ = u
	if rep.MTTR.Max > int64(500*sim.Microsecond) {
		t.Fatalf("MTTR %dns blew the detection budget", rep.MTTR.Max)
	}
	if rep.Events.CountByName("heal.fence") != 1 {
		t.Fatalf("event log:\n%s", rep.Events.String())
	}
}

func TestClusterHealsDomainCrash(t *testing.T) {
	c := newCluster(t, 2, 2)
	addParkWorkers(t, c, 0, 2, 1)
	addParkWorkers(t, c, 1, 2, 1)
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.DomainCrash, At: sim.Time(20 * sim.Microsecond)},
	}})
	rep, err := c.Run(400_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.DomainRestarts != 1 {
		t.Fatalf("restarts = %d, want 1\n%s", rep.DomainRestarts, rep.Canonical())
	}
	// Reconciliation: the fresh incarnation runs both workers, and the
	// untouched domain never noticed.
	for _, w := range []string{"d0w0", "d0w1"} {
		if _, ok := c.Manager(0).Lookup(w); !ok {
			t.Fatalf("worker %s lost across the domain restart", w)
		}
	}
	if c.Manager(1).FencedCores() != 0 {
		t.Fatal("healthy domain had cores fenced")
	}
	if rep.Events.CountByName("heal.restart") != 1 {
		t.Fatalf("event log:\n%s", rep.Events.String())
	}
}

func TestClusterFailsafeTakeover(t *testing.T) {
	c, err := New(Config{
		Domains:        1,
		CoresPerDomain: 1,
		Primary:        func() vessel.Policy { return vessel.FairSharePolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	addParkWorkers(t, c, 0, 1, 2)
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
	}})
	rep, err := c.Run(200_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.PolicySwaps != 1 {
		t.Fatalf("swaps = %d, want 1\n%s", rep.PolicySwaps, rep.Canonical())
	}
	if sw, reason := c.Failsafe(0).Swapped(); !sw || reason != "panic" {
		t.Fatalf("failsafe = (%v, %q)", sw, reason)
	}
	if rep.Events.CountByName("heal.failsafe") != 1 {
		t.Fatalf("event log:\n%s", rep.Events.String())
	}
	// The run survived the policy death: workers still alive.
	if _, ok := c.Manager(0).Lookup("d0w0"); !ok {
		t.Fatal("worker lost to a policy panic")
	}
}

func TestClusterHealsPkeyLeak(t *testing.T) {
	c := newCluster(t, 1, 1)
	addParkWorkers(t, c, 0, 1, 1)
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.PkeyLeak, At: sim.Time(5 * sim.Microsecond)},
		{Kind: faultinject.PkeyLeak, At: sim.Time(15 * sim.Microsecond)},
	}})
	rep, err := c.Run(200_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.PkeysHealed != 2 {
		t.Fatalf("healed %d keys, want 2\n%s", rep.PkeysHealed, rep.Canonical())
	}
	// Conservation: one worker, one region, all other app keys free.
	s := c.Manager(0).Domain.S
	if got := s.Keys.Available(); got != smas.MaxUProcs-1 {
		t.Fatalf("%d keys available, want %d", got, smas.MaxUProcs-1)
	}
}

func TestClusterSurvivesUintrStorm(t *testing.T) {
	c := newCluster(t, 1, 1)
	addParkWorkers(t, c, 0, 1, 2)
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.UintrStorm, At: sim.Time(10 * sim.Microsecond), Delay: 30 * sim.Microsecond},
	}})
	rep, err := c.Run(400_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Park-loop workers keep yielding voluntarily, so the domain rides
	// out the storm without any fencing; the drops are counted.
	if rep.Fences != 0 || rep.DomainRestarts != 0 {
		t.Fatalf("storm caused fences=%d restarts=%d\n%s", rep.Fences, rep.DomainRestarts, rep.Canonical())
	}
	if c.Manager(0).Injector() != nil && c.Manager(0).Injector().Counters.Get("inject.uintr.storm-drop") == 0 {
		t.Fatal("storm never dropped a send")
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	run := func() []byte {
		c := newCluster(t, 2, 2)
		addParkWorkers(t, c, 0, 2, 1)
		addParkWorkers(t, c, 1, 2, 1)
		for dom := 0; dom < 2; dom++ {
			c.InjectFaults(dom, faultinject.Plan{
				Seed: uint64(7 + dom),
				Faults: []faultinject.Fault{
					{Kind: faultinject.CoreStall, Core: 0, At: sim.Time(10 * sim.Microsecond)},
					{Kind: faultinject.PkeyLeak, At: sim.Time(20 * sim.Microsecond)},
					{Kind: faultinject.PolicyPanic, At: sim.Time(30 * sim.Microsecond)},
					{Kind: faultinject.DomainCrash, At: sim.Time(60 * sim.Microsecond)},
				},
				Random:       4,
				RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.UintrStorm},
				RandomCores:  2,
				RandomWindow: 100 * sim.Microsecond,
			})
		}
		rep, err := c.Run(400_000, 400)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Canonical()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical cluster runs diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestClusterAllFiveClassesRecover(t *testing.T) {
	c, err := New(Config{
		Domains:        2,
		CoresPerDomain: 2,
		WatchdogSoft:   20_000,
		WatchdogHard:   60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	addParkWorkers(t, c, 0, 2, 1)
	addParkWorkers(t, c, 1, 2, 1)
	c.InjectFaults(0, faultinject.Plan{Seed: 3, Faults: []faultinject.Fault{
		{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(10 * sim.Microsecond)},
		{Kind: faultinject.PkeyLeak, At: sim.Time(15 * sim.Microsecond)},
		{Kind: faultinject.DomainCrash, At: sim.Time(50 * sim.Microsecond)},
	}})
	c.InjectFaults(1, faultinject.Plan{Seed: 4, Faults: []faultinject.Fault{
		{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
		{Kind: faultinject.UintrStorm, At: sim.Time(20 * sim.Microsecond), Delay: 20 * sim.Microsecond},
	}})
	rep, err := c.Run(600_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v\n%s", rep.Violations, rep.Canonical())
	}
	if rep.Fences == 0 || rep.DomainRestarts == 0 || rep.PolicySwaps == 0 || rep.PkeysHealed == 0 {
		t.Fatalf("recovery paths not all exercised: fences=%d restarts=%d swaps=%d healed=%d\n%s",
			rep.Fences, rep.DomainRestarts, rep.PolicySwaps, rep.PkeysHealed, rep.Canonical())
	}
	// Every worker of every domain survives to the end.
	for dom := 0; dom < 2; dom++ {
		for _, w := range []string{fmt.Sprintf("d%dw0", dom), fmt.Sprintf("d%dw1", dom)} {
			if _, ok := c.Manager(dom).Lookup(w); !ok {
				t.Fatalf("worker %s did not survive\n%s", w, rep.Canonical())
			}
		}
	}
}

// TestClusterChaosFlightRecorderEndToEnd drives the full black-box loop:
// a journey tracer rides along a chaos run whose faults force both a
// failsafe swap and a whole-domain restart, and every recovery action
// must leave a flight-recorder dump in the report — reason named after
// the action, seam events captured, the bounded window's scroll-outs
// counted. The same plan replayed against a fresh tracer must render
// byte-identical canonical output, dumps included: the postmortem
// artifact is as deterministic as the run it witnesses.
func TestClusterChaosFlightRecorderEndToEnd(t *testing.T) {
	run := func() (*Report, *journey.Tracer) {
		c, err := New(Config{
			Domains:        2,
			CoresPerDomain: 2,
			WatchdogSoft:   20_000,
			WatchdogHard:   60_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := journey.NewTracer(journey.Config{
			SLOTarget: 30 * sim.Microsecond,
			SLOWindow: 50 * sim.Microsecond,
		})
		c.AttachJourney(tr)
		addParkWorkers(t, c, 0, 2, 1)
		addParkWorkers(t, c, 1, 2, 1)
		c.InjectFaults(0, faultinject.Plan{Seed: 3, Faults: []faultinject.Fault{
			{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.DomainCrash, At: sim.Time(50 * sim.Microsecond)},
		}})
		c.InjectFaults(1, faultinject.Plan{Seed: 4, Faults: []faultinject.Fault{
			{Kind: faultinject.UintrStorm, At: sim.Time(10 * sim.Microsecond), Delay: 40 * sim.Microsecond},
		}})
		rep, err := c.Run(600_000, 400)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr
	}

	rep, tr := run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v\n%s", rep.Violations, rep.Canonical())
	}
	if rep.PolicySwaps == 0 || rep.DomainRestarts == 0 {
		t.Fatalf("chaos plan did not exercise both recovery paths: swaps=%d restarts=%d\n%s",
			rep.PolicySwaps, rep.DomainRestarts, rep.Canonical())
	}
	// One dump per recovery action, named after it, with the seam events
	// leading up to the action inside.
	byReason := map[string]journey.Dump{}
	for _, d := range rep.FlightDumps {
		byReason[d.Reason] = d
		if len(d.Events) == 0 {
			t.Fatalf("dump %q captured no events", d.Reason)
		}
	}
	if _, ok := byReason["heal.failsafe.domain0"]; !ok {
		t.Fatalf("no flight dump for the failsafe swap; got %d dumps", len(rep.FlightDumps))
	}
	restart, ok := byReason["heal.restart.domain0"]
	if !ok {
		t.Fatalf("no flight dump for the domain restart; got %d dumps", len(rep.FlightDumps))
	}
	// By restart time the run has logged more seam events (gate invokes,
	// SENDUIPI dispositions) than the bounded window holds: the black box
	// keeps the most recent ones and counts what scrolled out.
	if restart.Overwritten == 0 {
		t.Fatalf("restart dump should have scrolled the bounded window (events=%d)", len(restart.Events))
	}
	if tr.Flight().Overwritten() == 0 {
		t.Fatal("live flight recorder reports no overwrites")
	}
	// The dumps render inside the canonical report bytes.
	canon := rep.Canonical()
	for _, want := range []string{"flight-dump 0:", "# vessel-flight-dump v1", "reason heal.restart.domain0", "gate.invoke"} {
		if !bytes.Contains(canon, []byte(want)) {
			t.Fatalf("canonical report missing %q:\n%s", want, canon)
		}
	}
	// Replay determinism, postmortem included.
	rep2, _ := run()
	if !bytes.Equal(canon, rep2.Canonical()) {
		t.Fatalf("identical chaos runs rendered different reports:\n--- a ---\n%s\n--- b ---\n%s", canon, rep2.Canonical())
	}
}

package vessel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"vessel/internal/faultinject"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/uproc"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// chaosCase is one pinned RunChaos scenario: setup launches, supervises
// and injects on a fresh manager of cores cores, and started (may be nil)
// acts once every core has started; the survivor named "good", when
// launched, has its activation gaps summarised.
type chaosCase struct {
	name    string
	cores   int
	cfg     ChaosConfig
	setup   func(t *testing.T, mg *Manager)
	started func(t *testing.T, mg *Manager)
}

// chaosbenchCase is cmd/chaosbench's chaos scenario at one plan seed: a
// park-loop survivor next to a supervised crash-looper on one core, under
// the watchdog and seeded Uintr drop/delay tampering.
func chaosbenchCase(seed uint64) chaosCase {
	return chaosCase{
		name:  fmt.Sprintf("chaosbench seed=%d", seed),
		cores: 1,
		cfg:   ChaosConfig{Steps: 800_000, Quantum: 400},
		setup: func(t *testing.T, mg *Manager) {
			mustLaunch(t, mg, "good", 0)
			mg.EnableWatchdog(2000, 8000)
			mustSupervise(t, mg, 0, RestartPolicy{Backoff: 1 * sim.Microsecond, MaxBackoff: 8 * sim.Microsecond})
			mg.InjectFaults(faultinject.Plan{
				Seed:         seed,
				Random:       8,
				RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
				RandomCores:  1,
				RandomWindow: 300 * sim.Microsecond,
			})
		},
	}
}

func mustLaunch(t *testing.T, mg *Manager, name string, core int) {
	t.Helper()
	p := parkLoop(mg)
	p.Name = name
	if _, err := mg.Launch(name, p, core); err != nil {
		t.Fatal(err)
	}
}

func mustSupervise(t *testing.T, mg *Manager, core int, policy RestartPolicy) {
	t.Helper()
	if _, err := mg.Supervise("crash", func() *smas.Program { return crasher(mg, "crash") }, core, policy); err != nil {
		t.Fatal(err)
	}
}

// runChaosCase runs c and renders everything RunChaos decides: the
// report, the survivor's activation gaps, the injector counters and the
// full containment event log.
func runChaosCase(t *testing.T, c chaosCase) []byte {
	mg, err := NewManager(c.cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	mg.Events()
	c.setup(t, mg)
	h := stats.NewHistogram()
	var lastNs float64
	started := false
	mg.Domain.OnActivate = func(core int, th *uproc.Thread) {
		if th.U.Name != "good" {
			return
		}
		ns := mg.Machine().NsFor(mg.Machine().Core(core).Cycles)
		if started {
			h.Record(int64(ns - lastNs))
		}
		started = true
		lastNs = ns
	}
	for core := 0; core < c.cores; core++ {
		if err := mg.Start(core); err != nil {
			t.Fatal(err)
		}
	}
	if c.started != nil {
		c.started(t, mg)
	}
	rep, err := mg.RunChaos(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s (%d cores, %d steps @ quantum %d)\n", c.name, c.cores, c.cfg.Steps, c.cfg.Quantum)
	fmt.Fprintf(&b, "report: %+v\n", rep)
	fmt.Fprintf(&b, "clock: %v\n", mg.Engine().Now())
	for core := 0; core < c.cores; core++ {
		cc := mg.Machine().Core(core)
		current := "-"
		if th := mg.Domain.Current(core); th != nil {
			current = th.U.Name
		}
		fmt.Fprintf(&b, "core %d: cycles=%d halted=%v stalled=%v current=%s queued=%d\n",
			core, cc.Cycles, cc.Halted, cc.Stalled, current, mg.Domain.QueueLen(core))
	}
	fmt.Fprintf(&b, "survivor gaps: %s\n", h.Summarize())
	if inj := mg.Injector(); inj != nil {
		fmt.Fprintf(&b, "injector counters:\n%s", inj.Counters.String())
	}
	fmt.Fprintf(&b, "events (%d, %d overwritten):\n%s\n", mg.Events().Len(), mg.Events().Overwritten(), mg.Events().String())
	return b.Bytes()
}

// TestRunChaosGolden pins RunChaos byte for byte: cmd/chaosbench's
// scenario over four plan seeds, a supervised crasher alone on an idle
// domain (restarts fired from the event queue), an uncontained runtime
// fault that fail-stops a core, and a core stall that lands while the
// core is halted.
func TestRunChaosGolden(t *testing.T) {
	cases := []chaosCase{
		chaosbenchCase(42), chaosbenchCase(43), chaosbenchCase(44), chaosbenchCase(45),
		{
			name:  "all cores idle",
			cores: 1,
			cfg:   ChaosConfig{Steps: 100_000, Quantum: 500},
			setup: func(t *testing.T, mg *Manager) {
				mustSupervise(t, mg, 0, RestartPolicy{Backoff: 5 * sim.Microsecond, MaxBackoff: 40 * sim.Microsecond})
			},
		},
		{
			name:  "fatal core",
			cores: 2,
			cfg:   ChaosConfig{Steps: 120_000, Quantum: 500},
			setup: func(t *testing.T, mg *Manager) {
				mustLaunch(t, mg, "good", 0)
				mustLaunch(t, mg, "peer", 1)
				mustSupervise(t, mg, 0, RestartPolicy{Backoff: 2 * sim.Microsecond, MaxBackoff: 8 * sim.Microsecond})
				mg.InjectFaults(faultinject.Plan{Seed: 7, Faults: []faultinject.Fault{
					{Kind: faultinject.RuntimeCrash, Target: "peer", At: sim.Time(20 * sim.Microsecond)},
				}})
			},
		},
		{
			// Core 1 starts idle, then gets work queued without a wake
			// and stalls before the first round.
			name:  "stall on a halted core",
			cores: 2,
			cfg:   ChaosConfig{Steps: 120_000, Quantum: 500},
			setup: func(t *testing.T, mg *Manager) {
				mustLaunch(t, mg, "good", 0)
				mustSupervise(t, mg, 0, RestartPolicy{Backoff: 2 * sim.Microsecond, MaxBackoff: 8 * sim.Microsecond})
				mg.InjectFaults(faultinject.Plan{Seed: 7, Faults: []faultinject.Fault{
					{Kind: faultinject.CoreStall, Core: 1, At: 0},
				}})
			},
			started: func(t *testing.T, mg *Manager) {
				mustLaunch(t, mg, "late", 1)
				mg.Injector().Step(0)
			},
		},
	}
	var got bytes.Buffer
	for _, c := range cases {
		got.Write(runChaosCase(t, c))
	}
	const path = "testdata/runchaos.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing: %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
			line++
		}
		var g, w []byte
		if line < len(gl) {
			g = gl[line]
		}
		if line < len(wl) {
			w = wl[line]
		}
		t.Fatalf("%s differs at line %d (%d vs %d bytes)\n got: %s\nwant: %s", path, line+1, got.Len(), len(want), g, w)
	}
}

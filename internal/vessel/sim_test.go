package vessel

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

func runVessel(t *testing.T, cfg sched.Config) sched.Result {
	t.Helper()
	res, err := Simulator{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseCfg(apps ...*workload.App) sched.Config {
	return sched.Config{
		Seed:     1,
		Cores:    8,
		Duration: 40 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Apps:     apps,
		Costs:    cpu.Default(),
	}
}

func TestLAppAloneLowLoad(t *testing.T) {
	// 8 cores, 1µs service → capacity 8 Mops. At 2 Mops latency must be
	// low and throughput equal offered load.
	mc := workload.NewLApp("memcached", workload.Memcached(), 2e6)
	res := runVessel(t, baseCfg(mc))
	a, _ := res.App("memcached")
	if a.Latency.P50 > 3000 {
		t.Fatalf("p50 = %dns at 25%% load", a.Latency.P50)
	}
	if a.Latency.P999 > 50_000 {
		t.Fatalf("p999 = %dns at 25%% load", a.Latency.P999)
	}
	got := a.Tput.PerSecond()
	if got < 1.9e6 || got > 2.1e6 {
		t.Fatalf("throughput = %.2f Mops, want ~2", got/1e6)
	}
	if a.NormTput < 0.2 || a.NormTput > 0.3 {
		t.Fatalf("norm tput = %.3f, want ~0.25", a.NormTput)
	}
}

func TestColocationNearIdealTotalThroughput(t *testing.T) {
	// The headline VESSEL property (Fig. 9): colocating memcached with
	// Linpack keeps total normalized throughput near 1 across loads
	// (paper: 6.6% average decline).
	for _, loadFrac := range []float64{0.2, 0.5, 0.8} {
		mc := workload.NewLApp("memcached", workload.Memcached(), loadFrac*8e6)
		lp := workload.Linpack()
		res := runVessel(t, baseCfg(mc, lp))
		total := res.TotalNormTput()
		if total < 0.85 || total > 1.05 {
			t.Fatalf("load %.1f: total norm tput = %.3f, want ~1", loadFrac, total)
		}
		b, _ := res.App("linpack")
		wantB := 1 - loadFrac
		if b.NormTput < wantB-0.15 || b.NormTput > wantB+0.1 {
			t.Fatalf("load %.1f: B norm = %.3f, want ~%.2f", loadFrac, b.NormTput, wantB)
		}
	}
}

func TestColocationLatencyStaysLow(t *testing.T) {
	// Even at 80% load with a colocated B-app, VESSEL's P999 stays in
	// the tens of µs (paper Fig. 9: ~20-60µs at high load).
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.8*8e6)
	res := runVessel(t, baseCfg(mc, workload.Linpack()))
	a, _ := res.App("memcached")
	if a.Latency.P999 > 100_000 {
		t.Fatalf("p999 = %.1fµs, want < 100µs", float64(a.Latency.P999)/1000)
	}
	if res.Preemptions == 0 {
		t.Fatal("colocation at 80% load must preempt BE cores")
	}
}

func TestOverloadExplodesLatency(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 1.2*8e6)
	res := runVessel(t, baseCfg(mc))
	a, _ := res.App("memcached")
	if a.Latency.P999 < 200_000 {
		t.Fatalf("p999 = %dns under overload, expected explosion", a.Latency.P999)
	}
}

func TestDenseColocationManyApps(t *testing.T) {
	// 10 L-apps on one core (Fig. 10 shape): aggregate throughput close
	// to a single app's at the same aggregate load.
	mk := func(n int, aggregate float64) (float64, int64) {
		apps := make([]*workload.App, n)
		for i := range apps {
			apps[i] = workload.NewLApp(string(rune('a'+i)), workload.Memcached(), aggregate/float64(n))
		}
		cfg := baseCfg(apps...)
		cfg.Cores = 1
		res := runVessel(t, cfg)
		var tput float64
		var p999 int64
		for _, ar := range res.Apps {
			tput += ar.Tput.PerSecond()
			if ar.Latency.P999 > p999 {
				p999 = ar.Latency.P999
			}
		}
		return tput, p999
	}
	t1, p1 := mk(1, 0.7e6)
	t10, p10 := mk(10, 0.7e6)
	if t10 < 0.9*t1 {
		t.Fatalf("10-app aggregate tput %.2f Mops << 1-app %.2f Mops", t10/1e6, t1/1e6)
	}
	// Tail grows only modestly (paper: VESSEL "almost unchanged").
	if p10 > 5*p1+50_000 {
		t.Fatalf("10-app p999 %.1fµs vs 1-app %.1fµs", float64(p10)/1000, float64(p1)/1000)
	}
}

func TestSiloHighServiceTimes(t *testing.T) {
	// Silo's 20µs median requests amortise switching: total normalized
	// throughput approaches ideal.
	rate := 0.7 * sched.IdealLCapacity(8, workload.Silo())
	silo := workload.NewLApp("silo", workload.Silo(), rate)
	cfg := baseCfg(silo, workload.Linpack())
	cfg.Duration = 200 * sim.Millisecond
	cfg.Warmup = 20 * sim.Millisecond
	res := runVessel(t, cfg)
	if total := res.TotalNormTput(); total < 0.9 {
		t.Fatalf("Silo colocation total norm tput = %.3f", total)
	}
}

func TestBandwidthRegulation(t *testing.T) {
	// With a bandwidth budget, membench's measured consumption must track
	// the target closely (Fig. 13b's VESSEL line).
	mb := workload.Membench()
	cfg := baseCfg(mb)
	cfg.BWTargetFrac = 0.3
	res := runVessel(t, cfg)
	b, _ := res.App("membench")
	target := 0.3 * cfg.Costs.MemBWTotal
	if b.AvgBWGBs > target*1.15 {
		t.Fatalf("measured %.1f GB/s exceeds target %.1f GB/s", b.AvgBWGBs, target)
	}
	if b.AvgBWGBs < target*0.5 {
		t.Fatalf("measured %.1f GB/s far below target %.1f GB/s (over-throttled)", b.AvgBWGBs, target)
	}
}

func TestCycleBreakdownSane(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 4e6)
	res := runVessel(t, baseCfg(mc, workload.Linpack()))
	bd := res.Cycles
	total := bd.Total()
	want := sim.Duration(8) * 40 * sim.Millisecond
	// All core-time must be accounted (within 1%).
	if total < want*99/100 || total > want*101/100 {
		t.Fatalf("breakdown total %v, want %v", total, want)
	}
	// VESSEL's overhead fraction is small (paper: ~1-3%).
	if f := bd.OverheadFrac(); f > 0.05 {
		t.Fatalf("overhead fraction %.3f, want < 5%%", f)
	}
	if bd.AppNs == 0 {
		t.Fatal("no app time")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sched.Result {
		mc := workload.NewLApp("memcached", workload.Memcached(), 4e6)
		return runVessel(t, baseCfg(mc, workload.Linpack()))
	}
	a, b := run(), run()
	if a.Switches != b.Switches || a.Preemptions != b.Preemptions {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Switches, a.Preemptions, b.Switches, b.Preemptions)
	}
	la, _ := a.App("memcached")
	lb, _ := b.App("memcached")
	if la.Latency.P999 != lb.Latency.P999 || la.Completed != lb.Completed {
		t.Fatal("results differ across identical runs")
	}
}

func TestPriorityPreemptionProtectsHighPriorityTails(t *testing.T) {
	// §4.4: "preemption happens when a high-priority task is blocked by
	// a low-priority one". Memcached (1µs requests) shares two cores
	// with Silo (20–280µs requests). Without priorities, memcached
	// requests queue behind multi-hundred-µs Silo transactions; with a
	// higher priority, VESSEL preempts Silo mid-request at gate cost.
	run := func(mcPrio int) (int64, sched.Result) {
		mc := workload.NewLApp("memcached", workload.Memcached(), 0.25*2e6)
		mc.Priority = mcPrio
		silo := workload.NewLApp("silo", workload.Silo(), 0.5*sched.IdealLCapacity(2, workload.Silo()))
		cfg := baseCfg(mc, silo)
		cfg.Cores = 2
		cfg.Duration = 100 * sim.Millisecond
		cfg.Warmup = 20 * sim.Millisecond
		res := runVessel(t, cfg)
		a, _ := res.App("memcached")
		return a.Latency.P999, res
	}
	flatP999, _ := run(0)
	prioP999, prioRes := run(1)
	if prioP999 >= flatP999/3 {
		t.Fatalf("priority preemption should slash memcached's tail: %dns (prio) vs %dns (flat)",
			prioP999, flatP999)
	}
	if prioP999 > 60_000 {
		t.Fatalf("prioritised p999 = %dns, want tens of µs", prioP999)
	}
	// Silo still completes its work (requests resume, none lost).
	s, _ := prioRes.App("silo")
	if s.Completed < s.Offered*95/100 {
		t.Fatalf("silo lost requests: %d/%d", s.Completed, s.Offered)
	}
	if prioRes.Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Simulator{}).Run(sched.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := (Simulator{}).Run(sched.Config{Cores: 1, Duration: 1000}); err == nil {
		t.Fatal("no apps accepted")
	}
}

// TestHeapPushesPerRequest pins how much of a VESSEL run goes through the
// engine's event heap. At colo-16c's cell (16 cores, memcached at load 0.8
// beside linpack, seed 1, 2 ms warm-up plus 8 ms) each offered request
// fires ~3.4 engine callbacks. Its arrival, its control-plane forward and
// the scheduler's reaction looks are single-flight timers beside the heap,
// so only 1.123 of them are heap pushes; with every one on the heap it
// was 3.4.
func TestHeapPushesPerRequest(t *testing.T) {
	const cores = 16
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.8*sched.IdealLCapacity(cores, workload.Memcached()))
	cfg := baseCfg(mc, workload.NewBApp("linpack", 0.5, 0.05))
	cfg.Cores, cfg.Warmup, cfg.Duration = cores, 2*sim.Millisecond, 8*sim.Millisecond
	r, err := Simulator{}.start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run(r.EndAt)
	offered := float64(mc.Offered)
	fired, pushed := float64(r.Eng.Fired())/offered, float64(r.Eng.Pushed())/offered
	if pushed > 1.125 || fired-pushed < 2 {
		t.Fatalf("%d requests: %.4f firings and %.4f heap pushes each, want at most 1.125 pushes and at least 2 timer firings",
			mc.Offered, fired, pushed)
	}
}

// refIdleCore is the scan onArrival made before the idle set: the
// lowest-numbered core that is not busy and runs nothing, or -1.
func refIdleCore(r *vesselRun) int {
	for _, c := range r.cores {
		if !c.busy && c.runningB == nil && c.runningL == nil {
			return c.id
		}
	}
	return -1
}

// TestIdleSetMatchesScan steps runs one event at a time and checks after
// every step that the idle set holds exactly the cores the scan's
// predicate accepts, so its pick is the scan's. The cells cover fig12's
// saturation probe (bench's saturate-44c), a machine wide enough for the
// set's second word (where the pick must land at least once), L-apps of
// different priorities (mid-request preemption), a bandwidth cap (the
// regulation scan's idle sweep) and three L-apps.
func TestIdleSetMatchesScan(t *testing.T) {
	mc := func(name string, load float64, cores int) *workload.App {
		return workload.NewLApp(name, workload.Memcached(), load*sched.IdealLCapacity(cores, workload.Memcached()))
	}
	cell := func(cores int, warm, dur sim.Duration, apps ...*workload.App) sched.Config {
		cfg := baseCfg(apps...)
		cfg.Cores, cfg.Warmup, cfg.Duration = cores, warm, dur
		return cfg
	}
	hi := mc("memcached", 0.25, 4)
	hi.Priority = 1
	capped := cell(8, sim.Millisecond, 4*sim.Millisecond, mc("memcached", 0.5, 8), workload.Membench())
	capped.BWTargetFrac = 0.3
	for _, tc := range []struct {
		name string
		cfg  sched.Config
		wide bool // the pick must reach core 64
	}{
		{"saturate-44c", cell(44, 2*sim.Millisecond, 8*sim.Millisecond, mc("memcached", 0.9, 44), workload.Linpack()), false},
		{"96-cores", cell(96, sim.Millisecond, 4*sim.Millisecond,
			workload.NewLApp("silo", workload.Silo(), 0.8*sched.IdealLCapacity(96, workload.Silo()))), true},
		{"priorities", cell(4, 2*sim.Millisecond, 10*sim.Millisecond, hi,
			workload.NewLApp("silo", workload.Silo(), 0.5*sched.IdealLCapacity(4, workload.Silo()))), false},
		{"bandwidth-cap", capped, false},
		{"three-l-apps", cell(8, sim.Millisecond, 4*sim.Millisecond,
			mc("a", 0.2, 8), mc("b", 0.3, 8), mc("c", 0.4, 8)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Simulator{}.start(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxPick := -1
			for r.Eng.Step() {
				pick, want := r.idle.Next(0), refIdleCore(r)
				if pick != want {
					t.Fatalf("at %v: idle set picks core %d, scan %d", r.Eng.Now(), pick, want)
				}
				for _, c := range r.cores {
					if idle := !c.busy && c.runningB == nil && c.runningL == nil; (r.idle.Next(c.id) == c.id) != idle {
						t.Fatalf("at %v: core %d idle=%v, idle set disagrees", r.Eng.Now(), c.id, idle)
					}
				}
				maxPick = max(maxPick, pick)
			}
			if tc.wide && maxPick < 64 {
				t.Fatalf("the pick never reached core 64 (highest %d): the second word went untested", maxPick)
			}
		})
	}
}

// TestPreemptAfterWorkDoneCompletes: a §4.4 preemption that lands after
// a request's work is done, while only its bandwidth stall is left to
// run, completes the request at the preemption. It must not go back on
// its queue to run its whole service time again.
func TestPreemptAfterWorkDoneCompletes(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.3*sched.IdealLCapacity(8, workload.Memcached()))
	cfg := baseCfg(mc, workload.Membench())
	cfg.Cores, cfg.Warmup, cfg.Duration = 8, 0, 2*sim.Millisecond
	r, err := Simulator{}.start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r.Eng.Step() {
		now := r.Eng.Now()
		for _, c := range r.cores {
			req := c.curReq
			if req == nil || !c.reqEv.Pending() {
				continue
			}
			workEnd := c.reqFrom.Add(sim.Duration(float64(c.reqLeft)*c.reqInflat) + 1)
			if now <= workEnd || now >= c.reqEv.At() {
				continue
			}
			completed, h := mc.Completed, req.Handle()
			r.preemptL(c)
			if _, ok := r.left[h]; ok || mc.Completed != completed+1 {
				t.Fatalf("request preempted in its stall at %v went back on its queue instead of completing", now)
			}
			return
		}
	}
	t.Fatal("no request was caught in its bandwidth stall")
}

package caladan

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/vessel"
	"vessel/internal/workload"
)

func runC(t *testing.T, v Variant, cfg sched.Config) sched.Result {
	t.Helper()
	res, err := Simulator{Variant: v}.Run(cfg)
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

func TestNames(t *testing.T) {
	if (Simulator{Plain}).Name() != "Caladan" ||
		(Simulator{DRLow}).Name() != "Caladan-DR-L" ||
		(Simulator{DRHigh}).Name() != "Caladan-DR-H" {
		t.Fatal("names wrong")
	}
}

func TestLAppAloneWorks(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 2e6)
	res := runC(t, DRLow, baseCfg(mc))
	a, _ := res.App("memcached")
	got := a.Tput.PerSecond()
	if got < 1.9e6 || got > 2.1e6 {
		t.Fatalf("throughput = %.2f Mops", got/1e6)
	}
	if a.Latency.P999 > 150_000 {
		t.Fatalf("p999 = %dns alone at 25%% load", a.Latency.P999)
	}
}

func TestColocationLosesThroughputVsVessel(t *testing.T) {
	// The paper's core claim (Fig. 1a/9): Caladan's total normalized
	// throughput declines measurably under colocation while VESSEL's
	// stays near 1.
	load := 0.5 * 8e6
	mkApps := func() []*workload.App {
		return []*workload.App{
			workload.NewLApp("memcached", workload.Memcached(), load),
			workload.Linpack(),
		}
	}
	cal := runC(t, Plain, baseCfg(mkApps()...))
	ves, err := vessel.Simulator{}.Run(baseCfg(mkApps()...))
	if err != nil {
		t.Fatal(err)
	}
	if cal.TotalNormTput() >= ves.TotalNormTput() {
		t.Fatalf("Caladan total %.3f should trail VESSEL %.3f",
			cal.TotalNormTput(), ves.TotalNormTput())
	}
	if cal.TotalNormTput() > 0.95 {
		t.Fatalf("Caladan colocation too efficient: %.3f", cal.TotalNormTput())
	}
	if cal.TotalNormTput() < 0.55 {
		t.Fatalf("Caladan colocation unreasonably bad: %.3f", cal.TotalNormTput())
	}
}

func TestOverheadCyclesVisible(t *testing.T) {
	// Figure 1b: a meaningful share of cycles goes to kernel + runtime.
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.5*8e6)
	res := runC(t, Plain, baseCfg(mc, workload.Linpack()))
	f := res.Cycles.OverheadFrac()
	if f < 0.03 || f > 0.35 {
		t.Fatalf("overhead fraction = %.3f, want 5–30%%", f)
	}
	if res.Cycles.KernelNs == 0 || res.Cycles.RuntimeNs == 0 {
		t.Fatal("kernel and runtime time must both appear")
	}
}

func TestDelayRangeTradeoff(t *testing.T) {
	// DR-H must be more CPU-efficient but higher latency than DR-L
	// (Fig. 9's explicit tradeoff).
	load := 0.6 * 8e6
	mk := func() []*workload.App {
		return []*workload.App{
			workload.NewLApp("memcached", workload.Memcached(), load),
			workload.Linpack(),
		}
	}
	lo := runC(t, DRLow, baseCfg(mk()...))
	hi := runC(t, DRHigh, baseCfg(mk()...))
	loApp, _ := lo.App("memcached")
	hiApp, _ := hi.App("memcached")
	if hiApp.Latency.P999 <= loApp.Latency.P999 {
		t.Fatalf("DR-H p999 %d must exceed DR-L %d", hiApp.Latency.P999, loApp.Latency.P999)
	}
	if hi.TotalNormTput() < lo.TotalNormTput()-0.02 {
		t.Fatalf("DR-H total %.3f should be >= DR-L %.3f (efficiency side of the tradeoff)",
			hi.TotalNormTput(), lo.TotalNormTput())
	}
}

func TestReallocationCostsKernelTime(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.4*8e6)
	res := runC(t, Plain, baseCfg(mc, workload.Linpack()))
	if res.Reallocations == 0 {
		t.Fatal("no core reallocations at 40% load with a B-app")
	}
	if res.Cycles.KernelNs == 0 {
		t.Fatal("reallocations must charge kernel time")
	}
}

func TestDenseColocationDegrades(t *testing.T) {
	// Fig. 10: 10 L-apps on one core degrade Caladan's aggregate
	// throughput and tail while VESSEL stays put.
	mk := func(n int, aggregate float64) []*workload.App {
		apps := make([]*workload.App, n)
		for i := range apps {
			apps[i] = workload.NewLApp(string(rune('a'+i)), workload.Memcached(), aggregate/float64(n))
		}
		return apps
	}
	maxP999 := func(res sched.Result) int64 {
		var p int64
		for _, a := range res.Apps {
			if a.Latency.P999 > p {
				p = a.Latency.P999
			}
		}
		return p
	}
	agg := func(res sched.Result) float64 {
		var tput float64
		for _, a := range res.Apps {
			tput += a.Tput.PerSecond()
		}
		return tput
	}
	const load = 0.8e6
	cfg1 := baseCfg(mk(1, load)...)
	cfg1.Cores = 1
	one := runC(t, DRLow, cfg1)
	cfg10 := baseCfg(mk(10, load)...)
	cfg10.Cores = 1
	ten := runC(t, DRLow, cfg10)
	// Throughput keeps up below saturation, but the tail explodes:
	// the paper's P999 inflation under dense colocation.
	if maxP999(ten) < 4*maxP999(one) {
		t.Fatalf("dense Caladan p999 %dns should be several times single-app %dns",
			maxP999(ten), maxP999(one))
	}
	// VESSEL on the identical dense workload keeps throughput AND a far
	// lower tail (paper: "almost unchanged").
	vcfg := baseCfg(mk(10, load)...)
	vcfg.Cores = 1
	vres, err := vessel.Simulator{}.Run(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg(vres) < 0.95*load {
		t.Fatalf("VESSEL dense aggregate %.2f Mops, want ~%.2f", agg(vres)/1e6, load/1e6)
	}
	if maxP999(vres) > maxP999(ten)/3 {
		t.Fatalf("VESSEL dense p999 %dns should be well below Caladan's %dns",
			maxP999(vres), maxP999(ten))
	}
}

func TestBandwidthRegulationCoarser(t *testing.T) {
	// Both systems support bandwidth thresholds; Caladan enforces at
	// 10 µs with expensive reallocations.
	mb := workload.Membench()
	cfg := baseCfg(mb)
	cfg.BWTargetFrac = 0.3
	res := runC(t, Plain, cfg)
	b, _ := res.App("membench")
	target := 0.3 * cfg.Costs.MemBWTotal
	if b.AvgBWGBs > target*1.6 {
		t.Fatalf("Caladan bw %.1f wildly above target %.1f", b.AvgBWGBs, target)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() sched.Config {
		return baseCfg(workload.NewLApp("memcached", workload.Memcached(), 3e6), workload.Linpack())
	}
	a := runC(t, DRLow, mk())
	b := runC(t, DRLow, mk())
	if a.Switches != b.Switches || a.Reallocations != b.Reallocations {
		t.Fatal("non-deterministic")
	}
}

func TestValidation(t *testing.T) {
	if _, err := (Simulator{}).Run(sched.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestSaturatedEventHeapStaysShallow: at fig12's saturation probe (44
// cores, memcached at load 0.9 beside linpack, 2 ms warm-up plus 8 ms,
// seed 1, as bench's saturate-44c runs it) the IOKernel falls tens of
// thousands of requests behind, but the engine holds one forward for the
// whole backlog, so the event heap stays within a few events per core.
// With one event per accepted request it peaked at 96,041.
func TestSaturatedEventHeapStaysShallow(t *testing.T) {
	const cores = 44
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.9*sched.IdealLCapacity(cores, workload.Memcached()))
	cfg := sched.Config{
		Seed:     1,
		Cores:    cores,
		Duration: 8 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
		Apps:     []*workload.App{mc, workload.Linpack()},
	}
	r, err := Simulator{Variant: DRLow}.start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run(r.EndAt)
	if backlog := mc.Offered - mc.Completed; backlog < 10_000 {
		t.Fatalf("only %d requests left unserved: the probe no longer saturates the control plane", backlog)
	}
	if hw := r.Eng.HighWaterPending(); hw > 4*cores {
		t.Fatalf("event heap peaked at %d events on %d cores, want at most %d", hw, cores, 4*cores)
	}
}

// TestHeapPushesPerRequest pins how much of a Caladan run goes through the
// engine's event heap. At colo-16c's cell (16 cores, memcached at load 0.8
// beside linpack, seed 1, 2 ms warm-up plus 8 ms) each offered request
// fires ~3.0 engine callbacks. Its arrival, its IOKernel forward and the
// IOKernel's periodic tick are single-flight timers beside the heap, so
// only 1.363 of them are heap pushes (1.371 with the tick on the heap);
// with every one on the heap it was 3.0.
func TestHeapPushesPerRequest(t *testing.T) {
	const cores = 16
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.8*sched.IdealLCapacity(cores, workload.Memcached()))
	cfg := baseCfg(mc, workload.NewBApp("linpack", 0.5, 0.05))
	cfg.Cores, cfg.Warmup, cfg.Duration = cores, 2*sim.Millisecond, 8*sim.Millisecond
	r, err := Simulator{Variant: Plain}.start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run(r.EndAt)
	offered := float64(mc.Offered)
	fired, pushed := float64(r.Eng.Fired())/offered, float64(r.Eng.Pushed())/offered
	if pushed > 1.365 || fired-pushed < 1.5 {
		t.Fatalf("%d requests: %.4f firings and %.4f heap pushes each, want at most 1.365 pushes and at least 1.5 timer firings",
			mc.Offered, fired, pushed)
	}
}

// refPollingCore is the scan onArrival made before the polling set: app's
// lowest-numbered core in modePollL, or nil.
func refPollingCore(r *run, app *workload.App) *core {
	for _, c := range r.cores {
		if c.mode == modePollL && c.owner == app {
			return c
		}
	}
	return nil
}

// TestPollingSetMatchesScan steps runs one event at a time and checks
// after every step that the polling set holds exactly the cores in
// modePollL and that each L-app's pick is the scan's. The cells cover
// fig12's saturation probe (bench's saturate-44c), a machine wide enough
// for the set's second word (where a pick must land at least once), L-apps
// of different priorities, a bandwidth cap and three L-apps.
func TestPollingSetMatchesScan(t *testing.T) {
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
		v    Variant
		cfg  sched.Config
		wide bool // a pick must reach core 64
	}{
		{"saturate-44c", DRLow, cell(44, 2*sim.Millisecond, 8*sim.Millisecond, mc("memcached", 0.9, 44), workload.Linpack()), false},
		{"96-cores", Plain, cell(96, sim.Millisecond, 4*sim.Millisecond,
			workload.NewLApp("silo", workload.Silo(), 0.8*sched.IdealLCapacity(96, workload.Silo()))), true},
		{"priorities", DRHigh, cell(4, 2*sim.Millisecond, 10*sim.Millisecond, hi,
			workload.NewLApp("silo", workload.Silo(), 0.5*sched.IdealLCapacity(4, workload.Silo()))), false},
		{"bandwidth-cap", Plain, capped, false},
		{"three-l-apps", DRLow, cell(8, sim.Millisecond, 4*sim.Millisecond,
			mc("a", 0.2, 8), mc("b", 0.3, 8), mc("c", 0.4, 8), workload.Linpack()), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Simulator{Variant: tc.v}.start(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxPick := -1
			for r.Eng.Step() {
				for _, c := range r.cores {
					if (r.polling.Next(c.id) == c.id) != (c.mode == modePollL) {
						t.Fatalf("at %v: core %d in mode %d, polling set disagrees", r.Eng.Now(), c.id, c.mode)
					}
				}
				for _, app := range r.LApps {
					got, want := r.pollingCore(app), refPollingCore(r, app)
					if got != want {
						t.Fatalf("at %v: %s's polling pick is %v, scan %v", r.Eng.Now(), app.Name, got, want)
					}
					if got != nil {
						maxPick = max(maxPick, got.id)
					}
				}
			}
			if tc.wide && maxPick < 64 {
				t.Fatalf("no pick reached core 64 (highest %d): the second word went untested", maxPick)
			}
		})
	}
}

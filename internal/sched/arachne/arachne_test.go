package arachne

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

func runA(t *testing.T, cfg sched.Config) sched.Result {
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
		Duration: 300 * sim.Millisecond,
		Warmup:   100 * sim.Millisecond, // past the first arbiter rounds
		Apps:     apps,
		Costs:    cpu.Default(),
	}
}

func TestLowLoadWorks(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 200_000)
	res := runA(t, baseCfg(mc, workload.Linpack()))
	a, _ := res.App("memcached")
	if got := a.Tput.PerSecond(); got < 0.9*200_000 {
		t.Fatalf("throughput %.0f below offered 200k", got)
	}
	if a.Latency.P50 > 100_000 {
		t.Fatalf("p50 = %dns at low load", a.Latency.P50)
	}
}

func TestDispatcherBottleneckCapsThroughput(t *testing.T) {
	// Arachne's per-request dispatch (~1µs) caps the app near 1 Mops no
	// matter how many cores — the paper's "sharp decline" beyond 1 Mops.
	mc := workload.NewLApp("memcached", workload.Memcached(), 2_000_000)
	res := runA(t, baseCfg(mc, workload.Linpack()))
	a, _ := res.App("memcached")
	got := a.Tput.PerSecond()
	if got > 1.15e6 {
		t.Fatalf("throughput %.2f Mops should be capped near 1 Mops", got/1e6)
	}
	if a.Latency.P999 < 5_000_000 {
		t.Fatalf("p999 = %.2fms; overload beyond the dispatcher cap should explode", float64(a.Latency.P999)/1e6)
	}
}

func TestSlowArbiterWastesCores(t *testing.T) {
	// Granted cores spin between arbiter rounds instead of being
	// returned: runtime waste visible in the breakdown.
	mc := workload.NewLApp("memcached", workload.Memcached(), 500_000)
	res := runA(t, baseCfg(mc, workload.Linpack()))
	if res.Cycles.RuntimeNs == 0 {
		t.Fatal("no runtime (spin) waste recorded")
	}
	frac := float64(res.Cycles.RuntimeNs) / float64(res.Cycles.Total())
	if frac < 0.01 {
		t.Fatalf("spin waste fraction %.4f suspiciously low", frac)
	}
	if res.Reallocations == 0 {
		t.Fatal("arbiter never moved cores")
	}
}

func TestBAppGetsRemainingCores(t *testing.T) {
	mc := workload.NewLApp("memcached", workload.Memcached(), 200_000)
	res := runA(t, baseCfg(mc, workload.Linpack()))
	b, _ := res.App("linpack")
	// L needs ~2-3 of 8 cores (dispatcher+workers); B gets most of the
	// rest.
	if b.NormTput < 0.4 {
		t.Fatalf("B norm tput = %.3f, want substantial share", b.NormTput)
	}
	if b.NormTput > 0.9 {
		t.Fatalf("B norm tput = %.3f — L must be holding some cores", b.NormTput)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() sched.Config {
		return baseCfg(workload.NewLApp("memcached", workload.Memcached(), 400_000), workload.Linpack())
	}
	a, b := runA(t, mk()), runA(t, mk())
	aa, _ := a.App("memcached")
	bb, _ := b.App("memcached")
	if aa.Completed != bb.Completed || a.Reallocations != b.Reallocations {
		t.Fatal("non-deterministic")
	}
}

func TestValidation(t *testing.T) {
	if _, err := (Simulator{}).Run(sched.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestEventsPerOfferedRequest pins how much engine work an Arachne run
// spends per offered request at colo-16c's cell (16 cores, memcached at
// load 0.8 beside linpack, seed 1, 2 ms warm-up plus 8 ms). The
// dispatcher creates one thread per µs, about 1 Mops, so most requests
// arrive after it can no longer reach them before the run ends. The first
// such arrival is abandoned and the rest are only counted: 0.233 engine
// callbacks fire per offered request. Building and queuing every arrival
// fired 1.156.
func TestEventsPerOfferedRequest(t *testing.T) {
	const cores = 16
	mc := workload.NewLApp("memcached", workload.Memcached(), 0.8*sched.IdealLCapacity(cores, workload.Memcached()))
	cfg := baseCfg(mc, workload.Linpack())
	cfg.Cores, cfg.Warmup, cfg.Duration = cores, 2*sim.Millisecond, 8*sim.Millisecond
	res := runA(t, cfg)
	per := float64(res.Events()) / float64(mc.Offered)
	if per > 0.25 {
		t.Fatalf("%d requests offered, %d completed: %.4f engine callbacks each, want at most 0.25",
			mc.Offered, mc.Completed, per)
	}
}

package vessel

// The benchmark harness: one testing.B per table and figure of the paper's
// evaluation (§6), each regenerating the result on the simulated substrate
// and reporting the headline numbers as custom metrics, plus ablation
// benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the same results as full text tables.

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/experiments"
	"vessel/internal/hostbench"
	"vessel/internal/sched"
	"vessel/internal/sim"
	ivessel "vessel/internal/vessel"
	"vessel/internal/workload"
)

var benchOpts = experiments.Options{Seed: 42, Quick: true}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MaxDecline*100, "max-decline-%")
		b.ReportMetric(f.MaxOverhead*100, "max-overhead-%")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last := f.Points[len(f.Points)-1]
		b.ReportMetric(last.KernelFrac*100, "kernel-%@10apps")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure3()
		b.ReportMetric(float64(f.Total), "caladan-realloc-ns")
		b.ReportMetric(float64(f.VesselPreempt), "vessel-preempt-ns")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AppFrac["VESSEL"]*100, "vessel-appfrac-%")
		b.ReportMetric(f.AppFrac["Caladan"]*100, "caladan-appfrac-%")
	}
}

func BenchmarkFigure9Memcached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(benchOpts, "memcached")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AvgDecline["VESSEL"]*100, "vessel-decline-%")
		b.ReportMetric(f.AvgDecline["Caladan"]*100, "caladan-decline-%")
	}
}

func BenchmarkFigure9Silo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(benchOpts, "silo")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AvgDecline["VESSEL"]*100, "vessel-decline-%")
		b.ReportMetric(f.AvgDecline["Caladan"]*100, "caladan-decline-%")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if v10, ok := f.At("VESSEL", 10, 0.5); ok {
			b.ReportMetric(float64(v10.MaxP999Ns)/1000, "vessel-10app-p999-µs")
		}
		if c10, ok := f.At("Caladan-DR-L", 10, 0.5); ok {
			b.ReportMetric(float64(c10.MaxP999Ns)/1000, "caladan-10app-p999-µs")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunTable1(benchOpts, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tb.Rows[0].Summary.Avg, "vessel-avg-ns")
		b.ReportMetric(float64(tb.Rows[0].Summary.P999), "vessel-p999-ns")
		b.ReportMetric(tb.Rows[1].Summary.Avg, "caladan-avg-ns")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Interleaved.MissRate*100, "caladan-miss-%")
		b.ReportMetric(f.Colored.MissRate*100, "vessel-miss-%")
		b.ReportMetric(f.TimeReduction*100, "time-reduction-%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range f.Points {
			if p.System == "VESSEL" && p.Cores == 42 {
				b.ReportMetric(p.GoodputMops, "vessel-42core-Mops")
			}
			if p.System == "Caladan-DR-L" && p.Cores == 42 {
				b.ReportMetric(p.GoodputMops, "caladan-42core-Mops")
			}
		}
	}
}

func BenchmarkFigure13a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure13a(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Advantage*100, "vessel-advantage-%")
	}
}

func BenchmarkFigure13b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure13b(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AvgError["VESSEL"]*100, "vessel-err-%")
		b.ReportMetric(f.AvgError["Intel-MBA"]*100, "mba-err-%")
	}
}

// ---- host-time gates -----------------------------------------------------------
//
// Bodies live in internal/hostbench so cmd/bench runs the identical code
// and gates it into BENCH_host.json; the Slow variants measure the same
// work with the fast path off, giving an in-process speedup ratio.

func BenchmarkCoreStep(b *testing.B)        { hostbench.BenchCoreStep(b) }
func BenchmarkCoreStepNoSB(b *testing.B)    { hostbench.BenchCoreStepNoSB(b) }
func BenchmarkCoreStepSlow(b *testing.B)    { hostbench.BenchCoreStepSlow(b) }
func BenchmarkASCheckHit(b *testing.B)      { hostbench.BenchASCheckHit(b) }
func BenchmarkASCheckHitSlow(b *testing.B)  { hostbench.BenchASCheckHitSlow(b) }
func BenchmarkReadBytes4K(b *testing.B)     { hostbench.BenchReadBytes4K(b) }
func BenchmarkReadBytes4KSlow(b *testing.B) { hostbench.BenchReadBytes4KSlow(b) }
func BenchmarkCoreMigrate(b *testing.B)     { hostbench.BenchCoreMigrate(b) }

// BenchmarkJourneyOverheadPaired reports the journey-on overhead of b.N
// paired obs-only / obs+journey colocation runs (DESIGN.md §15).
func BenchmarkJourneyOverheadPaired(b *testing.B) { benchJourneyPaired(b, 0) }

// BenchmarkJourneyOverheadSampledPaired is the same pairing with 1-in-16
// request sampling.
func BenchmarkJourneyOverheadSampledPaired(b *testing.B) { benchJourneyPaired(b, 16) }

func benchJourneyPaired(b *testing.B, sampleEvery int) {
	pct, obsMs, journeyMs, err := hostbench.JourneyOverheadPaired(b.N, sampleEvery, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(pct, "overhead-pct")
	b.ReportMetric(obsMs, "obs-ms")
	b.ReportMetric(journeyMs, "journey-ms")
	b.ReportMetric(0, "ns/op") // wall time is split across variants; ns/op is not meaningful here
}

// ---- ablations ---------------------------------------------------------------

// benchColo runs the standard colocation under a scheduler with a cost
// model and reports total normalized throughput and P999.
func benchColo(b *testing.B, s sched.Scheduler, costs *cpu.CostModel, label string) {
	b.Helper()
	cfg := sched.Config{
		Seed:     42,
		Cores:    8,
		Duration: 20 * sim.Millisecond,
		Warmup:   4 * sim.Millisecond,
		Apps: []*workload.App{
			workload.NewLApp("memcached", workload.Memcached(), 0.5*sched.IdealLCapacity(8, workload.Memcached())),
			workload.Linpack(),
		},
		Costs: costs,
	}
	res, err := s.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.TotalNormTput(), label+"-norm")
	b.ReportMetric(float64(res.LAppP999())/1000, label+"-p999-µs")
}

// BenchmarkAblationOneLevelVsTwoLevel contrasts the one-level policy
// (VESSEL) against the two-level conservative policy (Caladan) on identical
// hardware costs — the §4.5 design argument.
func BenchmarkAblationOneLevelVsTwoLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchColo(b, ivessel.Simulator{}, cpu.Default(), "one-level")
		benchColo(b, mustSched(b, "caladan"), cpu.Default(), "two-level")
	}
}

func mustSched(b *testing.B, name string) sched.Scheduler {
	b.Helper()
	s, err := NewScheduler(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationUintrVsKernelIPI runs VESSEL with the Uintr preemption
// path replaced by the legacy kernel IPI+signal path — quantifying what the
// paper's central hardware bet buys.
func BenchmarkAblationUintrVsKernelIPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchColo(b, ivessel.Simulator{}, cpu.Default(), "uintr")
		slow := cpu.Default()
		slow.UintrDeliver = slow.KernelIPIPath
		slow.VesselPreemptSwitch = slow.CaladanParkPath
		benchColo(b, ivessel.Simulator{}, slow, "kernel-ipi")
	}
}

// BenchmarkAblationGateCost sweeps WRPKRU's cost across the 11–260 cycle
// range the paper cites (§2.3), showing the switch path's sensitivity.
func BenchmarkAblationGateCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cycles := range []int64{11, 28, 260} {
			cm := cpu.Default()
			cm.WrPkruCycles = cycles
			// Two WRPKRUs per gate crossing dominate the delta.
			delta := cm.CyclesToNs(2 * (cycles - 28))
			cm.VesselParkSwitch += delta
			cm.VesselPreemptSwitch += delta
			benchColo(b, ivessel.Simulator{}, cm, "wrpkru-"+itoa(cycles))
		}
	}
}

// BenchmarkAblationStealWindow sweeps Caladan's 2µs steal window,
// quantifying the conservative-policy cost the one-level design removes.
func BenchmarkAblationStealWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, win := range []sim.Duration{500, 2000, 8000} {
			cm := cpu.Default()
			cm.CaladanStealWin = win
			benchColo(b, mustSched(b, "caladan"), cm, "steal-"+itoa(int64(win)))
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

package experiments

import (
	"testing"

	"vessel/internal/conformance"
	"vessel/internal/harness"
	"vessel/internal/sched"
)

// TestSchedulerInvariants checks conservation laws that must hold for
// every scheduler under every configuration:
//
//   - completed ≤ offered for every L-app;
//   - the cycle breakdown sums to cores × measured duration;
//   - every latency quantile is ≥ the minimum service time scale and the
//     quantiles are ordered;
//   - a B-app's useful time never exceeds cores × duration;
//   - normalized throughputs are non-negative and the total never exceeds
//     1 + ε (it is a partition of machine capacity plus sampling noise).
func TestSchedulerInvariants(t *testing.T) {
	type scenario struct {
		name string
		spec harness.RunSpec
	}
	o := Options{Seed: 9, Quick: true}
	dense := o.spec("",
		harness.AppSpec{Name: "a", Kind: "L", Dist: "memcached", LoadFrac: 0.2},
		harness.AppSpec{Name: "b", Kind: "L", Dist: "memcached", LoadFrac: 0.2},
		harness.AppSpec{Name: "c", Kind: "L", Dist: "memcached", LoadFrac: 0.2},
	)
	dense.Cores = 1
	bwRegulated := o.spec("", mcSpec(0.4), membenchSpec())
	bwRegulated.BWTargetFrac = 0.5
	scenarios := []scenario{
		{"colo-mid", o.spec("", mcSpec(0.5), linpackSpec())},
		{"colo-overload", o.spec("", mcSpec(1.1), linpackSpec())},
		{"lapp-alone", o.spec("", mcSpec(0.3))},
		{"bapp-alone", o.spec("", membenchSpec())},
		{"dense", dense},
		{"bw-regulated", bwRegulated},
	}
	for _, name := range fig9Systems() {
		s, err := harness.SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			cfg := sc.spec.Config()
			// Keep Arachne/Linux within their operating envelopes the
			// way the paper does, except the invariants must hold
			// regardless — so run them anyway.
			res, err := s.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sc.name, err)
			}
			checkInvariants(t, name+"/"+sc.name, cfg, res)
		}
	}
}

// checkInvariants delegates to the conformance package's universal result
// checker — the conservation laws that used to live inline here, promoted
// so the differential harness and any other package can reuse them.
func checkInvariants(t *testing.T, tag string, cfg sched.Config, res sched.Result) {
	t.Helper()
	for _, v := range conformance.CheckResult(tag, cfg, res) {
		t.Errorf("%s", v)
	}
}

func TestSensitivityDirections(t *testing.T) {
	f, err := RunSensitivity(Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byKnob := map[string][]SensPoint{}
	for _, p := range f.Points {
		byKnob[p.Knob] = append(byKnob[p.Knob], p)
	}
	// Slower UINTR delivery must not improve VESSEL's tail.
	ud := byKnob["uintr-delivery"]
	if len(ud) != 3 || ud[2].P999Ns < ud[0].P999Ns {
		t.Fatalf("uintr sweep: %+v", ud)
	}
	// Costlier WRPKRU must not raise total throughput.
	wp := byKnob["wrpkru-cycles"]
	if len(wp) != 3 || wp[2].TotalNorm > wp[0].TotalNorm {
		t.Fatalf("wrpkru sweep: %+v", wp)
	}
	// A longer steal window burns more cycles polling: total norm falls.
	sw := byKnob["steal-window"]
	if len(sw) != 3 || sw[2].TotalNorm >= sw[0].TotalNorm {
		t.Fatalf("steal-window sweep: %+v", sw)
	}
	// A slower reallocation interval must not improve Caladan's tail.
	ri := byKnob["realloc-interval"]
	if len(ri) != 3 || ri[2].P999Ns < ri[0].P999Ns {
		t.Fatalf("realloc-interval sweep: %+v", ri)
	}
	if f.String() == "" {
		t.Fatal("render")
	}
}

func TestFigure7Exhibit(t *testing.T) {
	f, err := Figure7(Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.AppFrac["VESSEL"] <= f.AppFrac["Caladan"] {
		t.Fatalf("VESSEL app fraction %.3f should exceed Caladan's %.3f — \"fill the core with the applications' workloads\"",
			f.AppFrac["VESSEL"], f.AppFrac["Caladan"])
	}
	if f.VesselStrip == "" || f.CaladanStrip == "" {
		t.Fatal("strips missing")
	}
	if f.String() == "" {
		t.Fatal("render")
	}
}

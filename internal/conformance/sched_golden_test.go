package conformance

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"vessel/internal/harness"
	"vessel/internal/sched"
)

// TestSchedulerCanonicalGolden pins the canonical result bytes of every
// registered scheduler, as sha256 digests, over generated scenarios 1–10
// plus one bandwidth-capped membench colocation cell. The determinism
// oracles only compare runs within one binary; this golden is what catches
// a refactor of the scheduler models that shifts a single committed byte.
func TestSchedulerCanonicalGolden(t *testing.T) {
	membench := harness.RunSpec{
		Seed:         1,
		Cores:        8,
		DurationNs:   2_000_000,
		WarmupNs:     400_000,
		BWTargetFrac: 0.5,
		Apps: []AppSpec{
			{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: 0.6},
			{Name: "membench", Kind: "B", BWDemand: 12.0, MemFrac: 0.7},
		},
	}
	var b strings.Builder
	for _, name := range harness.SchedulerNames() {
		s, err := harness.SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cell := func(label string, cfg sched.Config) {
			res, err := s.Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			fmt.Fprintf(&b, "%s %s %x\n", name, label, sha256.Sum256(res.Canonical()))
		}
		for seed := uint64(1); seed <= 10; seed++ {
			cell(fmt.Sprintf("seed=%d", seed), Generate(seed, true).Spec(name).Config())
		}
		spec := membench
		spec.Scheduler = name
		cell("membench-capped", spec.Config())
	}
	checkGolden(t, "testdata/sched_canonical.golden", []byte(b.String()))
}

// TestVesselRestartGolden pins the full canonical result bytes of every
// system on quick scenarios 21 and 92. Among quick scenarios 1–200 at
// full load these are the only ones where VESSEL preempts a request
// (§4.4) after its work is done but before its bandwidth stall noise
// ends; the request completes at the preemption. No other golden reaches
// that path. The golden is only ever read, never rewritten: -update
// leaves it alone.
func TestVesselRestartGolden(t *testing.T) {
	var b bytes.Buffer
	for _, seed := range []uint64{21, 92} {
		sc := Generate(seed, true)
		for _, s := range Systems() {
			res, err := s.Run(sc.Spec(s.Name()).Config())
			if err != nil {
				t.Fatalf("%s seed=%d: %v", s.Name(), seed, err)
			}
			fmt.Fprintf(&b, "== %s seed=%d\n", s.Name(), seed)
			b.Write(res.Canonical())
		}
	}
	matchGolden(t, "testdata/vessel_restart.golden", b.Bytes())
}

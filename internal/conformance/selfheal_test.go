package conformance

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vessel/internal/faultinject"
	"vessel/internal/obs/journey"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/vessel"
)

func healReport() *selfheal.Report {
	return &selfheal.Report{
		Rounds:         100,
		Fences:         1,
		DomainRestarts: 1,
		PolicySwaps:    1,
		PkeysHealed:    2,
		MTTR:           stats.Summary{Count: 2, Max: int64(400 * sim.Microsecond)},
	}
}

func oracles(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Oracle)
	}
	return out
}

func TestCheckSelfHealCleanRunPasses(t *testing.T) {
	want := SelfHealExpect{MinFences: 1, MinRestarts: 1, MinPolicySwaps: 1, MinPkeysHealed: 2}
	if vs := CheckSelfHeal("chaos", healReport(), want); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

func TestCheckSelfHealRelaysReportViolations(t *testing.T) {
	rep := healReport()
	rep.Violations = []string{"d0: leaked pkey 5", "d1: worker w0 lost"}
	vs := CheckSelfHeal("chaos", rep, SelfHealExpect{})
	n := 0
	for _, v := range vs {
		if v.Oracle == "recovery-invariant" {
			n++
			if v.System != "chaos" {
				t.Fatalf("system = %q", v.System)
			}
		}
	}
	if n != 2 {
		t.Fatalf("relayed %d of 2 violations: %v", n, vs)
	}
	if !strings.Contains(vs[0].String(), "leaked pkey 5") {
		t.Fatalf("detail lost: %v", vs[0])
	}
}

func TestCheckSelfHealMTTRBudget(t *testing.T) {
	rep := healReport()
	rep.MTTR.Max = int64(2 * sim.Millisecond)
	vs := CheckSelfHeal("chaos", rep, SelfHealExpect{})
	found := false
	for _, v := range vs {
		if v.Oracle == "mttr-budget" {
			found = true
		}
	}
	if !found {
		t.Fatalf("2ms MTTR passed a 1ms budget: %v", vs)
	}
}

func TestCheckSelfHealMTTRAccounting(t *testing.T) {
	rep := healReport()
	rep.MTTR.Count = 0 // recoveries claimed, no samples
	vs := CheckSelfHeal("chaos", rep, SelfHealExpect{})
	if len(vs) != 1 || vs[0].Oracle != "mttr-accounting" {
		t.Fatalf("missing samples not flagged: %v", vs)
	}

	rep = healReport()
	rep.MTTR.Count = 9 // more samples than recoveries
	vs = CheckSelfHeal("chaos", rep, SelfHealExpect{})
	if len(vs) != 1 || vs[0].Oracle != "mttr-accounting" {
		t.Fatalf("excess samples not flagged: %v", vs)
	}
}

func TestCheckSelfHealCoverageAndLiveness(t *testing.T) {
	rep := healReport()
	rep.PolicySwaps = 0
	rep.DomainsDead = 1
	want := SelfHealExpect{MinFences: 1, MinRestarts: 1, MinPolicySwaps: 1, MinPkeysHealed: 2}
	got := oracles(CheckSelfHeal("chaos", rep, want))
	if len(got) != 2 || got[0] != "coverage" || got[1] != "liveness" {
		t.Fatalf("oracles = %v", got)
	}

	// Dead domains tolerated when declared.
	want.AllowDeadDomains = true
	want.MinPolicySwaps = 0
	if vs := CheckSelfHeal("chaos", rep, want); len(vs) != 0 {
		t.Fatalf("declared expectations still flagged: %v", vs)
	}
}

func TestCheckSelfHealDefaultBudget(t *testing.T) {
	// The budget is the cluster's fixed 1ms: 500µs detect + 500µs restart.
	rep := healReport()
	rep.MTTR.Max = int64(900 * sim.Microsecond)
	if vs := CheckSelfHeal("chaos", rep, SelfHealExpect{}); len(vs) != 0 {
		t.Fatalf("900µs flagged under the 1ms budget: %v", vs)
	}
	rep.MTTR.Max = int64(1100 * sim.Microsecond)
	vs := CheckSelfHeal("chaos", rep, SelfHealExpect{})
	if len(vs) != 1 || vs[0].Oracle != "mttr-budget" {
		t.Fatalf("1.1ms not flagged under the 1ms budget: %v", vs)
	}
}

// crashingCluster runs a one-domain cluster whose domain crashes in each
// of crashes consecutive segments, with restarts capped at one.
func crashingCluster(t *testing.T, crashes int) *selfheal.Report {
	t.Helper()
	c, err := selfheal.New(selfheal.Config{Domains: 1, CoresPerDomain: 2, MaxDomainRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		name := fmt.Sprintf("w%d", core)
		if err := c.AddWorker(0, name, func(mg *vessel.Manager) *smas.Program {
			return vpkeyWorker(mg, name, 200)
		}, core, vessel.RestartPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	var rep *selfheal.Report
	for i := 0; i < crashes; i++ {
		// A restart discards the old incarnation's pending faults, so
		// each crash is planned against the current incarnation.
		at := c.Engine().Now().Add(20 * sim.Microsecond)
		c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{{Kind: faultinject.DomainCrash, At: at}}})
		if rep, err = c.Run(200_000, 400); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// TestSelfHealGivesUpPastMaxDomainRestarts: a domain that crashes once
// more than MaxDomainRestarts allows is declared dead, which the report
// and the liveness oracle both surface.
func TestSelfHealGivesUpPastMaxDomainRestarts(t *testing.T) {
	rep := crashingCluster(t, 1)
	if rep.DomainRestarts != 1 || rep.DomainsDead != 0 {
		t.Fatalf("one crash within the cap: restarts=%d dead=%d\n%s", rep.DomainRestarts, rep.DomainsDead, rep.Canonical())
	}

	rep = crashingCluster(t, 2)
	if rep.DomainsDead != 1 || rep.Events.CountByName("heal.giveup") != 1 {
		t.Fatalf("second crash past the cap: dead=%d\n%s", rep.DomainsDead, rep.Canonical())
	}
	if !bytes.Contains(rep.Canonical(), []byte(" dead=1 ")) {
		t.Fatalf("canonical report hides the dead domain:\n%s", rep.Canonical())
	}
	got := oracles(CheckSelfHeal("giveup", rep, SelfHealExpect{}))
	if len(got) != 1 || got[0] != "liveness" {
		t.Fatalf("oracles = %v, want [liveness]", got)
	}
	if vs := CheckSelfHeal("giveup", rep, SelfHealExpect{AllowDeadDomains: true}); len(vs) != 0 {
		t.Fatalf("declared dead domain still flagged: %v", vs)
	}
}

// TestSelfHealSLOBudget: a journey violation fraction above
// SLOMaxViolationFrac is a reported violation; one below it is not.
func TestSelfHealSLOBudget(t *testing.T) {
	run := func(budget float64) *selfheal.Report {
		c, err := selfheal.New(selfheal.Config{Domains: 1, CoresPerDomain: 1, SLOMaxViolationFrac: budget})
		if err != nil {
			t.Fatal(err)
		}
		tr := journey.NewTracer(journey.Config{SLOTarget: 2 * sim.Microsecond})
		c.AttachJourney(tr)
		// One of four requests misses the 2µs target: fraction 0.25.
		for i, sojourn := range []sim.Duration{1, 1, 1, 5} {
			arrive := sim.Time(i * 10 * int(sim.Microsecond))
			tr.Mint("req", arrive).Finish(arrive.Add(sojourn * sim.Microsecond))
		}
		rep, err := c.Run(4000, 400)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := run(0.2); len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "SLO violation fraction 0.2500 exceeds budget 0.2000") {
		t.Fatalf("over-budget fraction not reported: %v", rep.Violations)
	}
	if rep := run(0.3); len(rep.Violations) != 0 {
		t.Fatalf("under-budget fraction reported: %v", rep.Violations)
	}
}

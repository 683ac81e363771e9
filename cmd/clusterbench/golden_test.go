package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vessel"
)

var updateGolden = flag.Bool("update", false, "rewrite the cluster golden files")

// TestClusterCanonicalGolden pins every clusterbench scenario, byte for
// byte, under the default flags: the canonical ledger report, each
// domain's parks, preemptions and executed time, and the failure
// detector's tracked set. The in-process double run only proves a build
// agrees with itself; these files prove a refactor of the driver loop
// left every grant, upcall and beat where it was. Run with -update to
// rebless after an intentional change.
func TestClusterCanonicalGolden(t *testing.T) {
	type scenario struct {
		name   string
		policy string
		faults *vessel.FaultPlan
		run    func(*vessel.ScheduledCluster) error
	}
	var scenarios []scenario
	for _, p := range vessel.ClusterPolicyNames() {
		scenarios = append(scenarios,
			scenario{"auction-" + p, p, nil, steady},
			scenario{"drain-" + p, p, nil, drainAndSteady})
	}
	scenarios = append(scenarios,
		scenario{"hotswap", "fairshare", nil, swapMidRun},
		scenario{"panic", "fairshare", crashPlan(), steady})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s, err := auction(sc.policy, sc.faults, sc.run)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", sc.name+".golden"), render(s))
			checkGolden(t, filepath.Join("testdata", sc.name+".beats.golden"), renderBeats(s))
		})
	}
}

// renderBeats pins each tracked core's last heartbeat: the driver beats a
// granted core only in a round where it retired instructions, so an idle
// core's last beat stays behind the clock.
func renderBeats(s *vessel.ScheduledCluster) []byte {
	var b bytes.Buffer
	for _, id := range s.Detector().Tracked() {
		at, _ := s.Detector().LastBeat(id)
		fmt.Fprintf(&b, "%s %d\n", id, int64(at))
	}
	return b.Bytes()
}

// render is the byte witness of one scenario.
func render(s *vessel.ScheduledCluster) []byte {
	var b bytes.Buffer
	b.Write(s.Report().Canonical())
	for d := 0; d < s.Domains(); d++ {
		m := s.Manager(d)
		var parks, preempts uint64
		var ns float64
		for c := 0; c < m.NumCores(); c++ {
			p, q := m.Stats(c)
			parks += p
			preempts += q
			ns += m.CyclesNs(c)
		}
		fmt.Fprintf(&b, "domain %d: parks=%d preemptions=%d cycles_ns=%v\n", d, parks, preempts, ns)
	}
	fmt.Fprintf(&b, "tracked: %s\n", strings.Join(s.Detector().Tracked(), " "))
	return b.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (%d vs %d bytes); run with -update after intentional changes\n--- got ---\n%s",
			path, len(got), len(want), got)
	}
}

package conformance

import (
	"bytes"
	"sync"
	"testing"

	"vessel/internal/clustersched"
	"vessel/internal/sim"
)

// clusterClient actuates upcalls immediately, tracking online cores so a
// broken hold-back would surface as a core online in two domains.
type clusterClient struct{ online map[int]bool }

func (c *clusterClient) CoreGranted(core int, at sim.Time) error {
	c.online[core] = true
	return nil
}

func (c *clusterClient) CoreRevoked(core int, at sim.Time) (int, error) {
	delete(c.online, core)
	return 1, nil
}

// runClusterScenario drives a full demand-shift story against a Sched:
// bootstrap, a greedy phase (d0 hoards, d1 moderate, d2 idle), then a
// reversal (d0 drains and yields, d2 surges) so the op history contains
// grants, yield revokes, and revoke→regrant handoffs of the same core.
// The final Schedule is left undelivered to exercise pending accounting.
func runClusterScenario(policy string) *clustersched.Report {
	p, err := clustersched.NewNamed(policy)
	if err != nil {
		panic(err)
	}
	const domains, cores = 3, 12
	s, err := clustersched.New(clustersched.Config{
		Topo:    clustersched.Topology{Cores: cores, CoresPerNode: 4},
		Domains: domains,
	}, p)
	if err != nil {
		panic(err)
	}
	clients := make([]*clusterClient, domains)
	for d := range clients {
		clients[d] = &clusterClient{online: make(map[int]bool)}
	}
	deliver := func(at sim.Time) {
		// Two passes: a regrant held back behind an unactuated revoke
		// unblocks on the second sweep.
		for pass := 0; pass < 2; pass++ {
			for d := 0; d < domains; d++ {
				if _, err := s.Deliver(d, at, clients[d]); err != nil {
					panic(err)
				}
			}
		}
	}
	now := sim.Time(0)
	if _, err := s.Bootstrap(now); err != nil {
		panic(err)
	}
	deliver(now)

	// Greedy phase.
	s.RequestCores(0, 8, 1)
	s.RequestCores(1, 3, 1)
	s.SetSignals(0, 16, 0.4)
	s.SetSignals(1, 6, 0.1)
	s.SetSignals(2, 0, 0)
	for i := 0; i < 4; i++ {
		now = sim.Time(10 + 10*i)
		s.Schedule(now)
		deliver(now + 1)
	}

	// Reversal: d0 drains to two cores, d2 surges.
	now += 10
	for {
		g := s.Granted(0)
		if len(g) <= 2 {
			break
		}
		if err := s.YieldCore(0, g[len(g)-1], now); err != nil {
			panic(err)
		}
		now++
	}
	deliver(now)
	s.RequestCores(2, 6, now)
	s.SetSignals(0, 1, 0)
	s.SetSignals(2, 12, 0.5)
	for i := 0; i < 4; i++ {
		now += 10
		s.Schedule(now)
		deliver(now + 1)
	}

	// Last demand twitch, committed but never delivered.
	s.RequestCores(1, 2, now+5)
	s.Schedule(now + 6)
	return s.Report()
}

func hasOracle(vs []Violation, oracle string) bool {
	for _, v := range vs {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// copyReport clones the fields CheckClusterSched reads so tampering
// cannot leak between subtests.
func copyReport(r *clustersched.Report) *clustersched.Report {
	cp := *r
	cp.Ops = append([]clustersched.Op(nil), r.Ops...)
	cp.FinalOwner = append([]int(nil), r.FinalOwner...)
	return &cp
}

func TestCheckClusterSchedCleanSweep(t *testing.T) {
	for _, policy := range clustersched.Names() {
		rep := runClusterScenario(policy)
		if len(rep.Ops) == 0 {
			t.Fatalf("%s: scenario produced no ops", policy)
		}
		if rep.Revokes == 0 {
			t.Fatalf("%s: scenario produced no revokes — handoff path untested", policy)
		}
		if vs := CheckClusterSched("clustersched/"+policy, rep); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("%s", v)
			}
			t.Fatalf("%s: %d violations on a clean run", policy, len(vs))
		}
	}
}

func TestCheckClusterSchedTampers(t *testing.T) {
	base := runClusterScenario("fairshare")
	if vs := CheckClusterSched("base", base); len(vs) != 0 {
		t.Fatalf("baseline not clean: %v", vs)
	}
	cases := []struct {
		name, oracle string
		mutate       func(r *clustersched.Report) bool
	}{
		{"double-grant", "double-grant", func(r *clustersched.Report) bool {
			// Point a later grant at an earlier grant's core while that
			// core is still owned on the replayed ledger.
			owned := map[int]bool{}
			first := -1
			for i, op := range r.Ops {
				switch op.Kind {
				case clustersched.Grant:
					if first >= 0 && owned[r.Ops[first].Core] && i != first {
						r.Ops[i].Core = r.Ops[first].Core
						return true
					}
					if first < 0 {
						first = i
					}
					owned[op.Core] = true
				case clustersched.Revoke:
					owned[op.Core] = false
				}
			}
			return false
		}},
		{"revoke-owner", "revoke-owner", func(r *clustersched.Report) bool {
			for i, op := range r.Ops {
				if op.Kind == clustersched.Revoke {
					r.Ops[i].Domain = (op.Domain + 1) % r.Domains
					return true
				}
			}
			return false
		}},
		{"final-owner", "final-owner", func(r *clustersched.Report) bool {
			r.FinalOwner[0] = (r.FinalOwner[0]+2)%r.Domains + 1
			return true
		}},
		{"tally", "tally", func(r *clustersched.Report) bool {
			r.Grants++
			return true
		}},
		{"delivery", "delivery", func(r *clustersched.Report) bool {
			r.PendingUpcalls++
			return true
		}},
		{"actuation-time", "actuation-time", func(r *clustersched.Report) bool {
			for i, op := range r.Ops {
				if op.Delivered && op.At > 0 {
					r.Ops[i].DeliveredAt = op.At - 1
					return true
				}
			}
			return false
		}},
		{"regrant-order", "regrant-order", func(r *clustersched.Report) bool {
			// Find a delivered revoke followed by a delivered grant of the
			// same core and pull the grant's actuation before the revoke's.
			lastRevoke := map[int]int{}
			for i, op := range r.Ops {
				switch op.Kind {
				case clustersched.Revoke:
					if op.Delivered {
						lastRevoke[op.Core] = i
					}
				case clustersched.Grant:
					if j, ok := lastRevoke[op.Core]; ok && op.Delivered {
						r.Ops[i].DeliveredAt = r.Ops[j].DeliveredAt - 1
						return true
					}
				}
			}
			return false
		}},
		{"op-order", "op-order", func(r *clustersched.Report) bool {
			r.Ops[0].Seq, r.Ops[1].Seq = r.Ops[1].Seq, r.Ops[0].Seq
			return true
		}},
		{"op-range", "op-range", func(r *clustersched.Report) bool {
			r.Ops[0].Core = r.Cores + 7
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := copyReport(base)
			if !tc.mutate(rep) {
				t.Fatalf("scenario lacks material for the %s tamper", tc.name)
			}
			vs := CheckClusterSched("tampered", rep)
			if !hasOracle(vs, tc.oracle) {
				t.Fatalf("oracle %q did not fire; got %v", tc.oracle, vs)
			}
		})
	}
}

// TestCheckClusterSchedParallelDeterminism reruns the same scenario
// concurrently and requires byte-identical canonical reports — the
// witness CheckClusterSched certifies must not depend on goroutine
// interleaving or test parallelism.
func TestCheckClusterSchedParallelDeterminism(t *testing.T) {
	want := runClusterScenario("fairshare").Canonical()
	const width = 8
	got := make([][]byte, width)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runClusterScenario("fairshare").Canonical()
		}(i)
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		if !bytes.Equal(want, got[i]) {
			t.Fatalf("run %d diverged from the serial run (%d vs %d bytes)",
				i, len(got[i]), len(want))
		}
	}
}

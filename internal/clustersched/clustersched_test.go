package clustersched

import (
	"bytes"
	"fmt"
	"testing"

	"vessel/internal/sim"
)

// fakeClient records upcall actuations in order.
type fakeClient struct {
	log    []string
	online map[int]bool
	// failNext makes the next actuation fail.
	failNext bool
}

func newFakeClient() *fakeClient { return &fakeClient{online: make(map[int]bool)} }

func (f *fakeClient) CoreGranted(core int, at sim.Time) error {
	if f.failNext {
		f.failNext = false
		return fmt.Errorf("injected actuation failure")
	}
	f.online[core] = true
	f.log = append(f.log, fmt.Sprintf("grant:%d", core))
	return nil
}

func (f *fakeClient) CoreRevoked(core int, at sim.Time) (int, error) {
	if f.failNext {
		f.failNext = false
		return 0, fmt.Errorf("injected actuation failure")
	}
	delete(f.online, core)
	f.log = append(f.log, fmt.Sprintf("revoke:%d", core))
	return 1, nil
}

func newSched(t *testing.T, cores, domains int, p Policy) *Sched {
	t.Helper()
	s, err := New(Config{Topo: Topology{Cores: cores, CoresPerNode: 4}, Domains: domains}, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTopologyNodeMap(t *testing.T) {
	topo := Topology{Cores: 10, CoresPerNode: 4}
	if topo.Nodes() != 3 {
		t.Fatalf("nodes = %d, want 3", topo.Nodes())
	}
	for core, want := range map[int]int{0: 0, 3: 0, 4: 1, 9: 2} {
		if got := topo.Node(core); got != want {
			t.Errorf("Node(%d) = %d, want %d", core, got, want)
		}
	}
}

func TestCommitRefusesDoubleGrant(t *testing.T) {
	s := newSched(t, 4, 2, nil)
	res := s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 1, Core: 0}, // same core again
	}}, 0, "test")
	if res.Committed != 1 || res.Failed != 1 {
		t.Fatalf("committed=%d failed=%d, want 1/1", res.Committed, res.Failed)
	}
	if res.Moves[1].Reason != "owned" {
		t.Fatalf("second move reason %q, want owned", res.Moves[1].Reason)
	}
	if s.Owner(0) != 0 {
		t.Fatalf("core 0 owner = %d, want 0", s.Owner(0))
	}
}

func TestCommitValidatesInOrder(t *testing.T) {
	s := newSched(t, 2, 2, nil)
	// Domain 0 owns both cores.
	if res := s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 0, Core: 1},
	}}, 0, "test"); res.Failed != 0 {
		t.Fatal("setup grants refused")
	}
	// Revoke frees core 1 for the grant later in the same transaction.
	res := s.commit(Txn{Moves: []Move{
		{Kind: Revoke, Domain: 0, Core: 1},
		{Kind: Grant, Domain: 1, Core: 1},
	}}, 10, "test")
	if res.Committed != 2 {
		t.Fatalf("committed=%d, want 2: %+v", res.Committed, res.Moves)
	}
	if s.Owner(1) != 1 {
		t.Fatalf("core 1 owner = %d, want 1", s.Owner(1))
	}
}

func TestCommitGuards(t *testing.T) {
	s := newSched(t, 4, 2, nil)
	s.FenceCore(3, 0)
	res := s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 3},  // fenced
		{Kind: Grant, Domain: 0, Core: 9},  // out of range
		{Kind: Revoke, Domain: 0, Core: 0}, // not owner
		{Kind: Grant, Domain: 5, Core: 0},  // bad domain
		{Kind: Grant, Domain: 0, Core: 0},  // ok
		{Kind: Revoke, Domain: 0, Core: 0}, // last-core guard
	}}, 0, "test")
	wantReasons := []string{"fenced", "core-range", "not-owner", "domain-range", "", "last-core"}
	for i, want := range wantReasons {
		if got := res.Moves[i].Reason; got != want {
			t.Errorf("move %d reason %q, want %q", i, got, want)
		}
	}
	if res.Committed != 1 || res.Failed != 5 {
		t.Fatalf("committed=%d failed=%d, want 1/5", res.Committed, res.Failed)
	}
}

func TestMaxPerDomainCap(t *testing.T) {
	s, err := New(Config{Topo: Topology{Cores: 4}, Domains: 1, MaxPerDomain: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 0, Core: 1},
		{Kind: Grant, Domain: 0, Core: 2},
	}}, 0, "test")
	if res.Committed != 2 || res.Moves[2].Reason != "max-per-domain" {
		t.Fatalf("cap not enforced: %+v", res.Moves)
	}
}

func TestDeliverFIFOAndHoldback(t *testing.T) {
	s := newSched(t, 4, 2, nil)
	now := sim.Time(0)
	if _, err := s.Bootstrap(1, now); err != nil {
		t.Fatal(err)
	}
	// d0 owns c0, d1 owns c1. Move c0 from d0 to d1 in one transaction.
	res := s.commit(Txn{Moves: []Move{
		{Kind: Revoke, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 0, Core: 2}, // keep d0 above the floor... (already has min? revoke dropped to 0)
	}}, 5, "test")
	_ = res
	// d0's revoke of its only core is refused by the last-core guard;
	// grant it a second core first, then move c0.
	cl0, cl1 := newFakeClient(), newFakeClient()
	if _, err := s.Deliver(0, 6, cl0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deliver(1, 6, cl1); err != nil {
		t.Fatal(err)
	}
	res = s.commit(Txn{Moves: []Move{
		{Kind: Revoke, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 1, Core: 0},
	}}, 10, "test")
	if res.Committed != 2 {
		t.Fatalf("move txn committed=%d: %+v", res.Committed, res.Moves)
	}
	// Deliver to the grantee FIRST: the grant must be held back because
	// d0 has not actuated the revoke yet.
	n, err := s.Deliver(1, 11, cl1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("grant delivered before revoke actuated: %d upcalls, log=%v", n, cl1.log)
	}
	// Now the previous owner drains its revoke...
	if _, err := s.Deliver(0, 12, cl0); err != nil {
		t.Fatal(err)
	}
	// ...and the grant unblocks.
	n, err = s.Deliver(1, 13, cl1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !cl1.online[0] {
		t.Fatalf("grant still blocked after revoke actuation: n=%d online=%v", n, cl1.online)
	}
	if s.PendingUpcalls(0)+s.PendingUpcalls(1) != 0 {
		t.Fatalf("upcalls left pending")
	}
}

func TestYieldFlowsThroughUpcallQueue(t *testing.T) {
	s := newSched(t, 4, 1, nil)
	s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0},
		{Kind: Grant, Domain: 0, Core: 1},
	}}, 0, "test")
	cl := newFakeClient()
	if _, err := s.Deliver(0, 1, cl); err != nil {
		t.Fatal(err)
	}
	if err := s.YieldCore(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if s.Owner(1) != -1 {
		t.Fatal("yield did not free the core on the ledger")
	}
	if s.PendingUpcalls(0) != 1 {
		t.Fatal("yield did not enqueue a revoke upcall")
	}
	if _, err := s.Deliver(0, 3, cl); err != nil {
		t.Fatal(err)
	}
	if cl.log[len(cl.log)-1] != "revoke:1" {
		t.Fatalf("log = %v, want trailing revoke:1", cl.log)
	}
	// Yielding the last core is refused.
	if err := s.YieldCore(0, 0, 4); err == nil {
		t.Fatal("yield of last core accepted")
	}
}

func TestRequestFeedsStaticGrants(t *testing.T) {
	s := newSched(t, 8, 2, Static{})
	if _, err := s.Bootstrap(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RequestCores(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	res := s.Schedule(2)
	if res.Committed != 3 {
		t.Fatalf("static granted %d, want 3", res.Committed)
	}
	if got := s.GrantedCount(1); got != 4 {
		t.Fatalf("domain 1 has %d cores, want 4", got)
	}
	if s.Want(1) != 0 {
		t.Fatalf("want balance %d not drained", s.Want(1))
	}
}

func TestFairShareConvergesOnDemand(t *testing.T) {
	s := newSched(t, 12, 3, FairShare{})
	if _, err := s.Bootstrap(1, 0); err != nil {
		t.Fatal(err)
	}
	// Domain 0 wants everything; domain 1 a little; domain 2 idle.
	s.RequestCores(0, 20, 1)
	s.RequestCores(1, 3, 1)
	for i := 0; i < 4; i++ {
		s.Schedule(sim.Time(10 + i))
	}
	g0, g1, g2 := s.GrantedCount(0), s.GrantedCount(1), s.GrantedCount(2)
	if g2 != 1 {
		t.Fatalf("idle domain hoards %d cores, want 1", g2)
	}
	if g1 != 4 {
		t.Fatalf("domain 1 has %d cores, want 4 (demand-bounded)", g1)
	}
	if g0 != 7 {
		t.Fatalf("domain 0 has %d cores, want 7 (rest of the machine)", g0)
	}
	if g0+g1+g2 != 12 {
		t.Fatalf("cores leaked: %d+%d+%d != 12", g0, g1, g2)
	}
}

func TestMicroLatencyStealsForQueueBuildup(t *testing.T) {
	s := newSched(t, 8, 2, MicroLatency{})
	// Domain 0: 6 cores, idle. Domain 1: 2 cores, huge backlog.
	s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0}, {Kind: Grant, Domain: 0, Core: 1},
		{Kind: Grant, Domain: 0, Core: 2}, {Kind: Grant, Domain: 0, Core: 3},
		{Kind: Grant, Domain: 0, Core: 4}, {Kind: Grant, Domain: 0, Core: 5},
		{Kind: Grant, Domain: 1, Core: 6}, {Kind: Grant, Domain: 1, Core: 7},
	}}, 0, "test")
	s.SetSignals(0, 0, 0)
	s.SetSignals(1, 40, 0)
	res := s.Schedule(10)
	if res.Committed == 0 {
		t.Fatalf("no steal for hot domain: %+v", res)
	}
	if got := s.GrantedCount(1); got <= 2 {
		t.Fatalf("hot domain still has %d cores", got)
	}
	steals := 0
	for _, m := range res.Moves {
		if m.OK && m.Kind == Revoke && m.Domain == 0 {
			steals++
		}
	}
	if steals == 0 {
		t.Fatal("expected revokes against the cold domain")
	}
}

func TestMicroLatencySLOSignal(t *testing.T) {
	s := newSched(t, 4, 2, MicroLatency{})
	s.commit(Txn{Moves: []Move{
		{Kind: Grant, Domain: 0, Core: 0}, {Kind: Grant, Domain: 0, Core: 1},
		{Kind: Grant, Domain: 0, Core: 2}, {Kind: Grant, Domain: 1, Core: 3},
	}}, 0, "test")
	// Low backlog but SLO violations: still hot.
	s.SetSignals(1, 2, 0.5)
	res := s.Schedule(5)
	granted := 0
	for _, m := range res.Moves {
		if m.OK && m.Kind == Grant && m.Domain == 1 {
			granted++
		}
	}
	if granted == 0 {
		t.Fatalf("SLO-violating domain got nothing: %+v", res.Moves)
	}
}

func TestHotSwapRecorded(t *testing.T) {
	s := newSched(t, 4, 2, FairShare{})
	s.SetPolicy(MicroLatency{}, 100, "operator")
	if got := s.PolicyName(); got != "uslatency" {
		t.Fatalf("policy = %s", got)
	}
	sw := s.Swaps()
	if len(sw) != 1 || sw[0].From != "fairshare" || sw[0].To != "uslatency" {
		t.Fatalf("swap record %+v", sw)
	}
}

func TestFailsafeInjectPanicViaSchedule(t *testing.T) {
	fs := NewFailsafe(FairShare{}, 0)
	s := newSched(t, 4, 2, fs)
	if _, err := s.Bootstrap(1, 0); err != nil {
		t.Fatal(err)
	}
	fs.InjectPanic()
	s.Schedule(10)
	if ok, _ := fs.Swapped(); !ok {
		t.Fatal("injected panic did not swap")
	}
	// The swap is recorded exactly once in the scheduler history.
	found := 0
	for _, sw := range s.Swaps() {
		if sw.Reason == "failsafe: panic" {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("failsafe swap recorded %d times", found)
	}
	s.Schedule(11)
	if got := len(s.Swaps()); got != 1 {
		t.Fatalf("swap re-recorded: %d entries", got)
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := NewNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewNamed("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// runScenario drives a deterministic request/yield/steal scenario and
// returns the canonical report bytes.
func runScenario(t *testing.T) []byte {
	t.Helper()
	fs := NewFailsafe(FairShare{}, 100_000)
	s, err := New(Config{Topo: Topology{Cores: 16, CoresPerNode: 4}, Domains: 4}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bootstrap(1, 0); err != nil {
		t.Fatal(err)
	}
	clients := make([]*fakeClient, 4)
	for i := range clients {
		clients[i] = newFakeClient()
	}
	deliverAll := func(at sim.Time) {
		for d := 0; d < 4; d++ {
			if _, err := s.Deliver(d, at, clients[d]); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliverAll(1)
	s.RequestCores(0, 6, 2)
	s.RequestCores(2, 2, 2)
	for i := 0; i < 6; i++ {
		now := sim.Time(10 + 10*i)
		s.SetSignals(0, 12, 0)
		s.SetSignals(2, 4, 0.2)
		s.Schedule(now)
		deliverAll(now + 5)
		if i == 2 {
			s.SetPolicy(MicroLatency{}, now+6, "midrun")
		}
		if i == 4 {
			s.YieldCore(0, s.Granted(0)[len(s.Granted(0))-1], now+7)
			deliverAll(now + 8)
		}
	}
	return s.Report().Canonical()
}

func TestReportCanonicalDeterministic(t *testing.T) {
	a := runScenario(t)
	b := runScenario(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical bytes differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty canonical report")
	}
}

func TestDeliverErrorPropagates(t *testing.T) {
	s := newSched(t, 4, 1, nil)
	s.commit(Txn{Moves: []Move{{Kind: Grant, Domain: 0, Core: 0}}}, 0, "test")
	cl := newFakeClient()
	cl.failNext = true
	if _, err := s.Deliver(0, 1, cl); err == nil {
		t.Fatal("actuation failure swallowed")
	}
	// The failed upcall stays queued for a retry.
	if s.PendingUpcalls(0) != 1 {
		t.Fatal("failed upcall dropped from the queue")
	}
	if n, err := s.Deliver(0, 2, cl); err != nil || n != 1 {
		t.Fatalf("retry failed: n=%d err=%v", n, err)
	}
}

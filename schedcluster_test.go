package vessel

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vessel/internal/obs"
)

// launchWave places n park-loop uProcesses into domain d, named with the
// given prefix, on the domain's least-loaded online cores.
func launchWave(t *testing.T, s *ScheduledCluster, d, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-d%d-%03d", prefix, d, i)
		if _, err := s.Launch(d, name, buildParkLoop); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
	}
}

// TestScheduledClusterCoreAuction is the tentpole demo at scale: eight
// domains auctioning over the 128-core pool (the SMAS task-map page caps
// a domain at 128 cores, so each of the eight machines spans the full
// pool — 1024 simulated cores in all) with over a thousand uProcesses.
// Heavy domains (0-3) carry ~4× the load of light domains (4-7); the
// fair-share policy must shift cores toward demand while every domain
// keeps its floor, and no core may ever be owned by two domains.
func TestScheduledClusterCoreAuction(t *testing.T) {
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains:      8,
		Cores:        128,
		CoresPerNode: 16,
		Policy:       "fairshare",
		Quantum:      1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals in waves, so placement spreads onto cores as they are
	// granted: 8 waves × (30 heavy + 2 light per domain) =
	// 8×(4×30+4×2) = 1024 uProcesses. Heavy demand saturates the
	// per-domain slot cap; light demand stays below it.
	total := 0
	for wave := 0; wave < 8; wave++ {
		for d := 0; d < 8; d++ {
			n := 2
			if d < 4 {
				n = 30
			}
			launchWave(t, s, d, n, fmt.Sprintf("w%d", wave))
			total += n
		}
		if err := s.Run(6); err != nil {
			t.Fatal(err)
		}
	}
	if total != 1024 {
		t.Fatalf("launched %d uProcesses, want 1024", total)
	}
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}

	// Conservation: every pool core is owned by at most one domain, and
	// the ledger's view matches each domain's online set.
	ownedTotal := 0
	for d := 0; d < s.Domains(); d++ {
		g := s.GrantedCount(d)
		if g < 1 {
			t.Fatalf("domain %d fell below its 1-core floor (granted=%d)", d, g)
		}
		ownedTotal += g
		for _, core := range s.Sched().Granted(d) {
			if !s.Manager(d).CoreOnline(core) {
				t.Fatalf("ledger grants core %d to domain %d but it is not online there", core, d)
			}
		}
	}
	if ownedTotal > 128 {
		t.Fatalf("ledger granted %d cores from a 128-core pool", ownedTotal)
	}
	// Demand shifted the auction: the heavy half of the cluster holds
	// strictly more cores than the light half.
	heavy, light := 0, 0
	for d := 0; d < 4; d++ {
		heavy += s.GrantedCount(d)
	}
	for d := 4; d < 8; d++ {
		light += s.GrantedCount(d)
	}
	if heavy <= light {
		t.Fatalf("fair share did not follow demand: heavy=%d light=%d", heavy, light)
	}
	// Every domain actually ran its work (voluntary parks observed), and
	// executors were bound for every online core.
	for d := 0; d < s.Domains(); d++ {
		m := s.Manager(d)
		var parks uint64
		for _, core := range m.inner.OnlineCores() {
			p, _ := m.Stats(core)
			parks += p
			if m.inner.ExecutorOn(core) == nil {
				t.Fatalf("domain %d core %d online without a bound executor", d, core)
			}
		}
		if parks == 0 {
			t.Fatalf("domain %d never parked: its cores did no work", d)
		}
	}
	// The grant/upcall machinery really was exercised at scale: with the
	// 12-core slot cap per domain, a saturated cluster holds 96 cores;
	// most of that must have flowed through the grant path.
	r := s.Report()
	if r.Grants < 64 {
		t.Fatalf("only %d grants recorded for the auction", r.Grants)
	}
	if r.Actuation.Count == 0 {
		t.Fatal("no actuation latencies recorded")
	}
}

// TestScheduledClusterHotSwap swaps the cluster policy mid-run and checks
// the swap is recorded, the new policy decides, and scheduling continues.
func TestScheduledClusterHotSwap(t *testing.T) {
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains: 3,
		Cores:   12,
		Policy:  "fairshare",
		Quantum: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		launchWave(t, s, d, 4, "pre")
	}
	if err := s.Run(12); err != nil {
		t.Fatal(err)
	}
	if got := s.PolicyName(); got != "failsafe(fairshare)" {
		t.Fatalf("policy before swap = %q", got)
	}
	opsBefore := len(s.Sched().Ops())
	if err := s.SwapPolicy("uslatency", "operator upgrade"); err != nil {
		t.Fatal(err)
	}
	if got := s.PolicyName(); got != "failsafe(uslatency)" {
		t.Fatalf("policy after swap = %q", got)
	}
	for d := 0; d < 3; d++ {
		launchWave(t, s, d, 4, "post")
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	swaps := s.Sched().Swaps()
	if len(swaps) != 1 {
		t.Fatalf("swaps = %+v, want exactly one", swaps)
	}
	sw := swaps[0]
	if sw.From != "failsafe(fairshare)" || sw.To != "failsafe(uslatency)" || sw.Reason != "operator upgrade" {
		t.Fatalf("swap record = %+v", sw)
	}
	if len(s.Sched().Ops()) <= opsBefore {
		t.Fatal("no ledger operations committed after the hot swap")
	}
	if s.Events().CountByName("csched.swap") != 1 {
		t.Fatal("csched.swap missing from the event log")
	}
	// Unknown policies are refused without disturbing the active one.
	if err := s.SwapPolicy("nonsense", "x"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if got := s.PolicyName(); got != "failsafe(uslatency)" {
		t.Fatalf("failed swap changed the policy to %q", got)
	}
}

// TestScheduledClusterPolicyPanicFailsafe injects a cluster-policy panic
// mid-run: the failsafe must absorb it, swap one-way to static, keep the
// cluster scheduling, and the swap must be visible in the event log, the
// flight recorder, and the swap dumps.
func TestScheduledClusterPolicyPanicFailsafe(t *testing.T) {
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains:   3,
		Cores:     12,
		Policy:    "fairshare",
		Quantum:   1000,
		SLOTarget: 50 * Microsecond,
		Faults: &FaultPlan{
			Seed:   7,
			Faults: []InjectedFault{{Kind: FaultClusterPolicyPanic, At: Time(2 * Microsecond)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		launchWave(t, s, d, 5, "app")
	}
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	if got := s.PolicyName(); got != "failsafe[static]" {
		t.Fatalf("policy after panic = %q, want failsafe[static]", got)
	}
	swaps := s.Sched().Swaps()
	if len(swaps) != 1 || !strings.HasPrefix(swaps[0].Reason, "failsafe:") {
		t.Fatalf("swaps = %+v, want one failsafe takeover", swaps)
	}
	if s.Events().CountByName("csched.failsafe") != 1 {
		t.Fatal("csched.failsafe missing from the event log")
	}
	if s.Events().CountByName("inject.clusterpolicypanic") != 1 {
		t.Fatal("injection not recorded")
	}
	// The takeover is in the flight recorder of every domain's tracer and
	// produced a post-incident dump.
	for d := 0; d < 3; d++ {
		found := false
		for _, ev := range s.Tracer(d).Flight().Events() {
			if ev.Name == "cluster.policy.swap" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("domain %d flight recorder missing cluster.policy.swap", d)
		}
	}
	if len(s.SwapDumps) != 1 || !strings.Contains(s.SwapDumps[0].Text(), "cluster policy swap") {
		t.Fatalf("swap dumps = %d", len(s.SwapDumps))
	}
	// Static keeps granting: the cluster still works after the takeover.
	ops := len(s.Sched().Ops())
	for d := 0; d < 3; d++ {
		launchWave(t, s, d, 3, "after")
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(s.Sched().Ops()) <= ops {
		t.Fatal("no grants after failsafe takeover")
	}
}

// TestScheduledClusterZeroBudgetNeverSwapsOnBurn pins the meaning of
// PolicyBudgetCycles 0: the budget check is off, so an injected cycle burn
// is charged but never swaps the policy, while a positive budget swaps on
// the same burn.
func TestScheduledClusterZeroBudgetNeverSwapsOnBurn(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		want   string
	}{{0, "failsafe(fairshare)"}, {100_000, "failsafe[static]"}} {
		s, err := NewScheduledCluster(SchedClusterConfig{
			Domains:            2,
			Cores:              8,
			Policy:             "fairshare",
			Quantum:            1000,
			PolicyBudgetCycles: tc.budget,
			Faults: &FaultPlan{
				Seed:   7,
				Faults: []InjectedFault{{Kind: FaultClusterPolicyPanic, At: Time(2 * Microsecond), Delay: 1 << 30}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		launchWave(t, s, 0, 4, "app")
		if err := s.Run(24); err != nil {
			t.Fatal(err)
		}
		if s.Events().CountByName("inject.clusterpolicyburn") != 1 {
			t.Fatalf("budget %d: burn not injected", tc.budget)
		}
		if got := s.PolicyName(); got != tc.want {
			t.Fatalf("budget %d: policy after burn = %q, want %q", tc.budget, got, tc.want)
		}
	}
}

// TestScheduledClusterDeterminism runs the same auction twice and
// byte-compares the canonical reports — the determinism witness.
func TestScheduledClusterDeterminism(t *testing.T) {
	run := func() []byte {
		s, err := NewScheduledCluster(SchedClusterConfig{
			Domains: 4,
			Cores:   32,
			Policy:  "fairshare",
			Quantum: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		for wave := 0; wave < 3; wave++ {
			for d := 0; d < 4; d++ {
				n := 2 + 3*(d%2)
				launchWave(t, s, d, n, fmt.Sprintf("w%d", wave))
			}
			if err := s.Run(5); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(17); err != nil {
			t.Fatal(err)
		}
		return s.Report().Canonical()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical reports differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestScheduledClusterDetectorChurn pins the failure detector's tracked
// set to the ledger: granted cores are tracked, revoked ones forgotten.
func TestScheduledClusterDetectorChurn(t *testing.T) {
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains: 2,
		Cores:   8,
		Policy:  "fairshare",
		Quantum: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	launchWave(t, s, 0, 8, "busy")
	if err := s.Run(24); err != nil {
		t.Fatal(err)
	}
	tracked := make(map[string]bool)
	for _, id := range s.Detector().Tracked() {
		tracked[id] = true
	}
	n := 0
	for d := 0; d < 2; d++ {
		for _, core := range s.Sched().Granted(d) {
			id := fmt.Sprintf("d%d.c%d", d, core)
			if !tracked[id] {
				t.Fatalf("granted core %s not tracked by the detector", id)
			}
			n++
		}
	}
	if len(tracked) != n {
		t.Fatalf("detector tracks %d ids, ledger grants %d cores — revoked cores not forgotten", len(tracked), n)
	}
}

// TestScheduledClusterUpcallSpans checks the observability wiring: grant
// and revoke actuations emit CatUpcall spans (commit → delivery) and a
// domain-to-domain core transfer emits a CatGrant span.
func TestScheduledClusterUpcallSpans(t *testing.T) {
	o := NewObserver(0)
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains: 2,
		Cores:   6,
		Policy:  "fairshare",
		Quantum: 1000,
		Obs:     o,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Domain 1 runs finite work, then goes idle; its cores are yielded,
	// revoked, and re-granted to the still-busy domain 0 — the
	// domain-to-domain handoff the CatGrant span captures.
	finite := func(m *Manager) (*Program, error) {
		return m.NewProgram("finite").Repeat(10, func(b *ProgramBuilder) {
			b.Compute(500).Park()
		}).Exit().Build()
	}
	launchWave(t, s, 0, 10, "busy")
	for i := 0; i < 4; i++ {
		if _, err := s.Launch(1, fmt.Sprintf("finite-%d", i), finite); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(80); err != nil {
		t.Fatal(err)
	}
	var upcalls, transfers int
	for _, sp := range o.Spans() {
		switch sp.Cat {
		case obs.CatUpcall:
			upcalls++
		case obs.CatGrant:
			transfers++
			if !strings.Contains(sp.Name, "->d0") {
				t.Fatalf("transfer span %q does not land in domain 0", sp.Name)
			}
		}
	}
	if upcalls < 3 {
		t.Fatalf("only %d CatUpcall spans recorded", upcalls)
	}
	if transfers == 0 {
		t.Fatal("no CatGrant transfer spans recorded")
	}
}

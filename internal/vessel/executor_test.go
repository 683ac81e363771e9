package vessel

import (
	"testing"
)

func TestClusterManagedLifecycle(t *testing.T) {
	mg, err := NewManager(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.SetClusterManaged(4); err != nil {
		t.Fatal(err)
	}
	if got := len(mg.OnlineCores()); got != 0 {
		t.Fatalf("%d cores online before any grant", got)
	}
	// Launching on an ungranted core is refused.
	if _, err := mg.Launch("a", parkLoop(mg), 0); err == nil {
		t.Fatal("launch on ungranted core accepted")
	}
	if err := mg.GrantCore(0); err != nil {
		t.Fatal(err)
	}
	if err := mg.GrantCore(0); err == nil {
		t.Fatal("double grant accepted")
	}
	if !mg.CoreOnline(0) || mg.CoreOnline(1) {
		t.Fatal("online set wrong after grant")
	}
	if _, err := mg.Launch("a", parkLoop(mg), 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := mg.Domain.Wake(0); err != nil || !ok {
		t.Fatalf("wake after grant: ok=%v err=%v", ok, err)
	}
	if mg.Step(0, 500) == 0 {
		t.Fatal("granted core made no progress")
	}
	if _, ok := mg.Lookup("a"); !ok {
		t.Fatal("launched uProcess not registered")
	}
}

func TestRevokeMovesWorkAndRecyclesExecutor(t *testing.T) {
	mg, err := NewManager(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.SetClusterManaged(4); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 1} {
		if err := mg.GrantCore(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mg.Launch("a", parkLoop(mg), 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := mg.Domain.Wake(1); err != nil || !ok {
		t.Fatalf("wake: ok=%v err=%v", ok, err)
	}
	mg.Step(1, 100) // mid-run: a thread is live on core 1
	e1 := mg.ExecutorOn(1)
	if e1 == nil || e1.BoundCore != 1 {
		t.Fatalf("executor not bound: %+v", e1)
	}
	moved, err := mg.RevokeCore(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1 (the running thread)", moved)
	}
	if mg.CoreOnline(1) {
		t.Fatal("core still online after revoke")
	}
	if mg.ExecutorOn(1) != nil {
		t.Fatal("executor still bound after revoke")
	}
	// The thread landed on core 0 and resumes there.
	if ok, err := mg.Domain.Wake(0); err != nil || !ok {
		t.Fatalf("wake survivor: ok=%v err=%v", ok, err)
	}
	if mg.Step(0, 500) == 0 {
		t.Fatal("migrated thread made no progress")
	}
	// A re-grant on the same NUMA node recycles the cached executor.
	if err := mg.GrantCore(2); err != nil {
		t.Fatal(err)
	}
	e2 := mg.ExecutorOn(2)
	if e2 != e1 || e2.Binds != 2 {
		t.Fatalf("executor not recycled: e1=%p e2=%p binds=%d", e1, e2, e2.Binds)
	}
	allocs, recycles := mg.ExecCacheStats()
	if allocs != 2 || recycles != 1 {
		t.Fatalf("cache stats allocs=%d recycles=%d, want 2/1", allocs, recycles)
	}
}

func TestExecutorCacheIsNodeLocal(t *testing.T) {
	mg, err := NewManager(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.SetClusterManaged(4); err != nil {
		t.Fatal(err)
	}
	// Bind and release an executor on node 0.
	if err := mg.GrantCore(0); err != nil {
		t.Fatal(err)
	}
	e0 := mg.ExecutorOn(0)
	// Keep a second core online so the revoke has a re-home target.
	if err := mg.GrantCore(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.RevokeCore(0); err != nil {
		t.Fatal(err)
	}
	// A grant on node 1 must NOT steal node 0's cached executor.
	if err := mg.GrantCore(4); err != nil {
		t.Fatal(err)
	}
	e4 := mg.ExecutorOn(4)
	if e4 == e0 {
		t.Fatal("executor crossed NUMA nodes")
	}
	if e4.Node != 1 {
		t.Fatalf("node = %d, want 1", e4.Node)
	}
	// But a re-grant on node 0 does recycle it.
	if err := mg.GrantCore(2); err != nil {
		t.Fatal(err)
	}
	if mg.ExecutorOn(2) != e0 {
		t.Fatal("node-0 executor not recycled on node-0 re-grant")
	}
}

func TestRevokeLastCoreHasNoTargets(t *testing.T) {
	mg, err := NewManager(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.SetClusterManaged(0); err != nil {
		t.Fatal(err)
	}
	if err := mg.GrantCore(0); err != nil {
		t.Fatal(err)
	}
	// Revoking the only core is legal at the manager level (the cluster's
	// MinPerDomain invariant is what normally prevents it); the runqueue
	// stays put since there is nowhere to move it.
	if _, err := mg.RevokeCore(0); err != nil {
		t.Fatal(err)
	}
	if len(mg.OnlineCores()) != 0 {
		t.Fatal("cores online after revoking the only grant")
	}
}

func TestSetClusterManagedRefusesLiveUprocs(t *testing.T) {
	mg, err := NewManager(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Launch("a", parkLoop(mg), 0); err != nil {
		t.Fatal(err)
	}
	if err := mg.SetClusterManaged(0); err == nil {
		t.Fatal("entered cluster-managed mode with live uProcesses")
	}
}

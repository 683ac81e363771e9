package uproc

import (
	"testing"
)

func TestReleaseIdleCoreImmediate(t *testing.T) {
	d := newDomain(t, 2)
	moved, err := d.ReleaseCore(1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("moved %d threads off an idle core", moved)
	}
	if !d.Offline(1) {
		t.Fatal("core not offline")
	}
	if !d.Machine.Core(1).Halted {
		t.Fatal("idle released core not halted")
	}
	// Offline cores refuse wakes and dispatch nothing from StartCore.
	if ok, err := d.Wake(1); err != nil || ok {
		t.Fatalf("Wake on offline core: ok=%v err=%v", ok, err)
	}
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	if d.Current(1) != nil {
		t.Fatal("StartCore dispatched onto an offline core")
	}
}

func TestReleaseRehomesQueuedThreads(t *testing.T) {
	d := newDomain(t, 3)
	prog := parkLoopProgram(d, "A")
	prog.StackSize = 6 * threadStackSize
	u, err := d.CreateUProc("A", prog)
	if err != nil {
		t.Fatal(err)
	}
	t1 := u.Threads()[0]
	t2, err := d.NewThread(u, u.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := d.NewThread(u, u.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(2, t1)
	d.AttachThread(2, t2)
	d.AttachThread(2, t3)
	moved, err := d.ReleaseCore(2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Fatalf("moved %d, want 3", moved)
	}
	if got := d.QueueLen(0) + d.QueueLen(1); got != 3 {
		t.Fatalf("survivor queues hold %d threads, want 3", got)
	}
	if d.QueueLen(2) != 0 {
		t.Fatal("released core still holds threads")
	}
}

func TestReleaseRunningCoreDrainsAtGate(t *testing.T) {
	d := newDomain(t, 2)
	u, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 (the re-home target) is started idle so a later Wake can
	// dispatch onto it.
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	d.AttachThread(1, u.Threads()[0])
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(1)
	core.Run(50) // mid-execution: the thread is live on the core
	if d.Current(1) == nil {
		t.Fatal("setup: no running thread")
	}
	moved, err := d.ReleaseCore(1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("release moved the running thread early: %d", moved)
	}
	// The running thread is NOT killed — it drains at its next park.
	if d.Current(1) == nil {
		t.Fatal("release killed the running thread")
	}
	for i := 0; i < 10_000 && !core.Halted; i++ {
		core.Step()
	}
	if !core.Halted {
		t.Fatal("released core never drained")
	}
	if core.Fault != nil {
		t.Fatalf("fault during drain: %v", core.Fault)
	}
	if d.Current(1) != nil || d.QueueLen(1) != 0 {
		t.Fatal("released core still owns work after drain")
	}
	// The thread survived the move: it sits runnable on the target core.
	if d.QueueLen(0) != 1 {
		t.Fatalf("target core holds %d threads, want 1", d.QueueLen(0))
	}
	if th := d.Runqueue(0)[0]; th.State != ThreadRunnable {
		t.Fatalf("migrated thread state %v", th.State)
	}
	// And it resumes on the granted core without losing its context.
	if ok, err := d.Wake(0); err != nil || !ok {
		t.Fatalf("Wake(0) after rehome: ok=%v err=%v", ok, err)
	}
	d.Machine.Core(0).Run(500)
	if d.Machine.Core(0).Fault != nil {
		t.Fatalf("resumed thread faulted: %v", d.Machine.Core(0).Fault)
	}
	parks, _ := d.CoreStats(0)
	if parks == 0 {
		t.Fatal("resumed thread made no progress")
	}
}

func TestAdmitCoreReverses(t *testing.T) {
	d := newDomain(t, 2)
	if _, err := d.ReleaseCore(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.AdmitCore(1); err != nil {
		t.Fatal(err)
	}
	if d.Offline(1) {
		t.Fatal("core still offline after admit")
	}
	// The admitted core schedules again.
	u, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(1, u.Threads()[0])
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	if d.Current(1) == nil {
		t.Fatal("admitted core did not dispatch")
	}
}

func TestReleaseFenceInteraction(t *testing.T) {
	d := newDomain(t, 3)
	// A fenced core cannot be released or admitted.
	if _, _, err := d.FenceCore(2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReleaseCore(2, nil); err == nil {
		t.Fatal("released a fenced core")
	}
	if err := d.AdmitCore(2); err == nil {
		t.Fatal("admitted a fenced core")
	}
	// An offline core is not a valid re-home target for either mechanism.
	if _, err := d.ReleaseCore(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReleaseCore(0, []int{1}); err == nil {
		t.Fatal("release targeted an offline core")
	}
	if _, _, err := d.FenceCore(0, []int{1}); err == nil {
		t.Fatal("fence targeted an offline core")
	}
	// Double release is idempotent.
	if moved, err := d.ReleaseCore(1, nil); err != nil || moved != 0 {
		t.Fatalf("double release: moved=%d err=%v", moved, err)
	}
}

func TestReleasePreemptKicksDrain(t *testing.T) {
	// The cluster-side revocation pattern: release, then Preempt to force
	// the running thread to a gate boundary promptly instead of waiting
	// for its next voluntary park.
	d := newDomain(t, 2)
	u, err := d.CreateUProc("A", spinProgram("A"))
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(1, u.Threads()[0])
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(1)
	core.Run(100)
	if _, err := d.ReleaseCore(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Preempt(1, SchedCommand{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000 && !core.Halted; i++ {
		core.Step()
	}
	if !core.Halted || core.Fault != nil {
		t.Fatalf("spin thread not drained: halted=%v fault=%v", core.Halted, core.Fault)
	}
	if d.QueueLen(0) != 1 {
		t.Fatalf("spin thread not re-homed: %d on target", d.QueueLen(0))
	}
}

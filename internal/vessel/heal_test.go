package vessel

import (
	"strings"
	"testing"

	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	"vessel/internal/uproc"
)

// TestCancelPendingDropsScheduledRelaunch is the stale-event regression for
// domain teardown: a supervised relaunch scheduled on the shared engine must
// be cancellable, so it cannot fire into whatever replaces the domain.
func TestCancelPendingDropsScheduledRelaunch(t *testing.T) {
	eng := sim.NewEngine()
	mg, err := NewManagerOn(eng, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mg.Domain.Events = trace.NewEventLog(256)
	_, err = mg.Supervise("crash", func() *smas.Program { return crasher(mg, "crash") }, 0,
		RestartPolicy{Backoff: sim.Second, MaxBackoff: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Start(0); err != nil {
		t.Fatal(err)
	}
	// Run the core until the crasher has wild-stored and been contained.
	mg.m.Core(0).Run(5000)
	u, ok := mg.Lookup("crash")
	if !ok || u.State != uproc.UProcTerminated {
		t.Fatalf("crasher not contained: found=%v", ok)
	}
	// Supervision notices the death and schedules the backed-off relaunch.
	if err := mg.PollSupervised(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() == 0 {
		t.Fatal("no relaunch scheduled")
	}
	n := mg.CancelPending()
	if n < 1 {
		t.Fatalf("cancelled %d events, want >= 1", n)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events survived the cancel", eng.Pending())
	}
	// Drain virtual time far past the backoff: the cancelled relaunch must
	// not resurrect the uProcess.
	eng.Run(eng.Now().Add(10 * sim.Second))
	eng.RunAll(1 << 20)
	if restarts, _ := mg.Supervised("crash"); restarts != 0 {
		t.Fatalf("cancelled relaunch still fired: restarts=%d", restarts)
	}
	if _, ok := mg.Lookup("crash"); ok {
		t.Fatal("crasher resurrected after CancelPending")
	}
	if mg.Domain.Events.CountByName("cancel.pending") != 1 {
		t.Fatalf("cancel not logged:\n%s", mg.Domain.Events.String())
	}
	// Idempotent: nothing left to cancel.
	if n := mg.CancelPending(); n != 0 {
		t.Fatalf("second cancel found %d events", n)
	}
}

// TestFenceCoreRehomesAndRefusesPlacement covers manager-level fencing:
// queued work moves to the surviving core, and both Launch and the chaos
// scheduler refuse the fenced core afterwards.
func TestFenceCoreRehomesAndRefusesPlacement(t *testing.T) {
	mg, err := NewManager(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mg.Domain.Events = trace.NewEventLog(256)
	for _, name := range []string{"a", "b"} {
		if _, err := mg.Launch(name, spinner(name), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := mg.FenceCore(0); err != nil {
		t.Fatal(err)
	}
	if !mg.CoreFenced(0) || mg.CoreFenced(1) {
		t.Fatal("fence state wrong")
	}
	if mg.FencedCores() != 1 {
		t.Fatalf("fenced cores = %d", mg.FencedCores())
	}
	if got := mg.Domain.QueueLen(0); got != 0 {
		t.Fatalf("fenced core still queues %d threads", got)
	}
	if got := mg.Domain.QueueLen(1); got != 2 {
		t.Fatalf("survivor got %d threads, want 2", got)
	}
	if _, err := mg.Launch("c", spinner("c"), 0); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("launch on fenced core: %v", err)
	}
	// Fencing is idempotent.
	if err := mg.FenceCore(0); err != nil {
		t.Fatal(err)
	}
	if mg.FencedCores() != 1 {
		t.Fatal("re-fence changed state")
	}
	// The chaos loop schedules only the survivor; the run must still make
	// progress with core 0 withdrawn.
	if err := mg.Start(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.RunChaos(ChaosConfig{Steps: 2000, Quantum: 200}); err != nil {
		t.Fatal(err)
	}
	if cyc := mg.m.Core(0).Cycles; cyc != 0 {
		t.Fatalf("fenced core executed %d cycles", cyc)
	}
	if mg.m.Core(1).Cycles == 0 {
		t.Fatal("survivor made no progress")
	}
}

package kernel

import (
	"testing"
	"testing/quick"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/sim"
)

func newKernel() (*Kernel, *mem.Physical) {
	return New(sim.NewEngine(), cpu.Default()), mem.NewPhysical()
}

func TestForkAndLookup(t *testing.T) {
	k, phys := newKernel()
	p1, d := k.Fork(phys, 1000, 0)
	if d <= 0 {
		t.Fatal("fork must cost time")
	}
	p2, _ := k.Fork(phys, 1000, -19)
	if p1.PID == p2.PID {
		t.Fatal("duplicate pids")
	}
	got, ok := k.Process(p1.PID)
	if !ok || got != p1 {
		t.Fatal("lookup failed")
	}
	if !p1.Alive {
		t.Fatal("fresh process must be alive")
	}
}

func TestSignalDefaultDispositions(t *testing.T) {
	k, phys := newKernel()
	p, _ := k.Fork(phys, 0, 0)
	k.SendSignal(p, SIGSEGV)
	if p.Alive || p.ExitSignal != SIGSEGV {
		t.Fatalf("SIGSEGV default should kill: alive=%v exit=%v", p.Alive, p.ExitSignal)
	}
	// Signals to a dead process are no-ops.
	k.SendSignal(p, SIGTERM)
	if p.ExitSignal != SIGSEGV {
		t.Fatal("dead process disposition changed")
	}
}

func TestSignalHandlerIntercepts(t *testing.T) {
	k, phys := newKernel()
	p, _ := k.Fork(phys, 0, 0)
	caught := 0
	k.RegisterHandler(p, SIGSEGV, func(pr *KProcess, s Signal) { caught++ })
	k.SendSignal(p, SIGSEGV)
	if caught != 1 || !p.Alive {
		t.Fatalf("handler not run: caught=%d alive=%v", caught, p.Alive)
	}
	// SIGKILL cannot be caught.
	k.RegisterHandler(p, SIGKILL, func(pr *KProcess, s Signal) { caught += 100 })
	k.SendSignal(p, SIGKILL)
	if p.Alive || caught != 1 {
		t.Fatalf("SIGKILL must be uncatchable: alive=%v caught=%d", p.Alive, caught)
	}
}

func TestKernelAccounting(t *testing.T) {
	k, phys := newKernel()
	p, _ := k.Fork(phys, 0, 0)
	k.SendSignal(p, SIGUSR1) // no handler, no termination for USR1 default here
	k.Syscall("read", 100)
	cm := cpu.Default()
	want := map[string]sim.Duration{
		"fork":           2*cm.UserKernelCross + 50*sim.Microsecond,
		"signal:SIGUSR1": 2*cm.UserKernelCross + cm.SignalDeliver,
		"sys:read":       2*cm.UserKernelCross + 100,
	}
	if len(k.KernelNs) != len(want) {
		t.Fatalf("ledger %v, want %v", k.KernelNs, want)
	}
	for reason, d := range want {
		if k.KernelNs[reason] != d {
			t.Fatalf("%s = %v, want %v", reason, k.KernelNs[reason], d)
		}
	}
}

func TestFDBruteForceScenario(t *testing.T) {
	// §5.2.4 security scenario: uProcess A and B run inside the same
	// kProcess; A creates a file; B can discover the descriptor by
	// brute force because the fd table is shared kernel state.
	k, phys := newKernel()
	host, _ := k.Fork(phys, 1000, 0)
	fd, err := host.Creat(k.FS(), "/secret", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.WriteFD(fd, []byte("key material")); err != nil {
		t.Fatal(err)
	}
	// "uProcess B" probing descriptors in the same kProcess.
	var found []FD
	for probe := FD(0); probe < 64; probe++ {
		if host.FDValid(probe) {
			found = append(found, probe)
		}
	}
	if len(found) != 1 || found[0] != fd {
		t.Fatalf("brute force found %v, want [%d]", found, fd)
	}
}

func TestFDCorrectnessScenario(t *testing.T) {
	// §5.2.4 correctness scenario: a uProcess that created a file via
	// kProcess A cannot see the descriptor after being rescheduled into
	// kProcess B — and may lack ACL permission to reopen it when the
	// manager does NOT align kProcess credentials.
	k, phys := newKernel()
	procA, _ := k.Fork(phys, 1000, 0)
	procB, _ := k.Fork(phys, 2000, 0) // different uid: misconfigured manager
	fd, err := procA.Creat(k.FS(), "/data", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if procB.FDValid(fd) {
		t.Fatal("descriptor leaked across kProcesses")
	}
	if _, err := procB.Open(k.FS(), "/data", false); err == nil {
		t.Fatal("uid 2000 must not reopen a 0600 file owned by 1000")
	}
	// The manager's fix: create kProcesses with the same credentials.
	procB2, _ := k.Fork(phys, 1000, 0)
	if _, err := procB2.Open(k.FS(), "/data", true); err != nil {
		t.Fatalf("same-ACL kProcess must reopen: %v", err)
	}
}

func TestFSBasics(t *testing.T) {
	k, phys := newKernel()
	p, _ := k.Fork(phys, 1, 0)
	fd, err := p.Creat(k.FS(), "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFD(fd, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err == nil {
		t.Fatal("double close must EBADF")
	}
	rfd, err := p.Open(k.FS(), "/f", false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.ReadFD(rfd, 100)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read %q, %v", data, err)
	}
	if more, _ := p.ReadFD(rfd, 10); more != nil {
		t.Fatal("EOF read should return nil")
	}
	if err := p.WriteFD(rfd, []byte("x")); err == nil {
		t.Fatal("write to read-only fd must fail")
	}
	if _, err := p.Open(k.FS(), "/missing", false); err == nil {
		t.Fatal("open missing must fail")
	}
	if _, err := p.ReadFD(999, 1); err == nil {
		t.Fatal("read bad fd must fail")
	}
	// Other-uid read allowed by 0644.
	q, _ := k.Fork(phys, 2, 0)
	if _, err := q.Open(k.FS(), "/f", false); err != nil {
		t.Fatalf("world-readable open failed: %v", err)
	}
	if _, err := q.Open(k.FS(), "/f", true); err == nil {
		t.Fatal("world write must fail on 0644")
	}
	if len(k.FS().Names()) != 1 {
		t.Fatal("names")
	}
	if len(p.OpenFDs()) != 1 {
		t.Fatalf("open fds = %v", p.OpenFDs())
	}
}

func TestCreatTruncateRespectsACL(t *testing.T) {
	k, phys := newKernel()
	owner, _ := k.Fork(phys, 1, 0)
	if _, err := owner.Creat(k.FS(), "/t", 0o600); err != nil {
		t.Fatal(err)
	}
	other, _ := k.Fork(phys, 2, 0)
	if _, err := other.Creat(k.FS(), "/t", 0o600); err == nil {
		t.Fatal("non-owner truncate must fail")
	}
}

func TestWeightForNice(t *testing.T) {
	if WeightForNice(0) != 1024 {
		t.Fatalf("nice 0 weight = %d", WeightForNice(0))
	}
	if WeightForNice(-20) != 88761 || WeightForNice(19) != 15 {
		t.Fatal("extreme weights wrong")
	}
	if WeightForNice(-100) != WeightForNice(-20) || WeightForNice(100) != WeightForNice(19) {
		t.Fatal("clamping broken")
	}
	// The paper's configuration: L-app at −19, B-app at 20(→19).
	ratio := float64(WeightForNice(-19)) / float64(WeightForNice(19))
	if ratio < 4000 {
		t.Fatalf("−19 vs 19 weight ratio = %.0f, want enormous", ratio)
	}
}

func TestCFSRunqueueOrdering(t *testing.T) {
	rq := NewRunqueue()
	a := NewEntity(1, 0)
	b := NewEntity(2, 0)
	a.Vruntime = 100
	b.Vruntime = 50
	rq.Enqueue(a, false)
	rq.Enqueue(b, false)
	if got := rq.PickNext(); got != b {
		t.Fatal("lowest vruntime must run first")
	}
	rq.Account(2 * sim.Millisecond)
	rq.PutPrev()
	if got := rq.PickNext(); got != a {
		t.Fatal("after accounting, a should lead")
	}
}

func TestCFSWeightedAccounting(t *testing.T) {
	rq := NewRunqueue()
	heavy := NewEntity(1, -19) // weight 71755
	light := NewEntity(2, 19)  // weight 15
	rq.Enqueue(heavy, false)
	rq.Enqueue(light, false)
	// Run each for the same wall time; the heavy entity's vruntime must
	// advance ~4800x slower.
	e := rq.PickNext()
	rq.Account(1 * sim.Millisecond)
	v1 := e.Vruntime
	rq.Retire()
	e2 := rq.PickNext()
	rq.Account(1 * sim.Millisecond)
	v2 := e2.Vruntime
	hv, lv := v1, v2
	if e.ID == 2 {
		hv, lv = v2, v1
	}
	if lv < hv*1000 {
		t.Fatalf("weighting wrong: heavy=%v light=%v", hv, lv)
	}
}

func TestCFSWakeupPlacement(t *testing.T) {
	rq := NewRunqueue()
	runner := NewEntity(1, 0)
	rq.Enqueue(runner, false)
	rq.PickNext()
	rq.Account(100 * sim.Millisecond)
	rq.PutPrev()
	rq.PickNext() // advances minVruntime
	sleeper := NewEntity(2, 0)
	sleeper.Vruntime = 0 // slept for ages
	rq.Enqueue(sleeper, true)
	// Sleeper must be placed near minVruntime, not at 0: bounded boost.
	if sleeper.Vruntime < rq.MinVruntime()-rq.Latency {
		t.Fatalf("unbounded sleeper boost: v=%v min=%v", sleeper.Vruntime, rq.MinVruntime())
	}
}

func TestCFSTimesliceAndPreempt(t *testing.T) {
	rq := NewRunqueue()
	for i := 0; i < 8; i++ {
		rq.Enqueue(NewEntity(i, 0), false)
	}
	rq.PickNext()
	slice := rq.Timeslice()
	if slice < rq.MinGranularity {
		t.Fatalf("slice %v under min granularity", slice)
	}
	// With 8 equal entities, slice = latency/8 < min gran → floored.
	if slice != rq.MinGranularity {
		t.Fatalf("slice = %v, want floor %v", slice, rq.MinGranularity)
	}
	// ShouldPreempt: a waker far behind current preempts.
	waker := NewEntity(99, 0)
	waker.Vruntime = 0
	rq.Current().Vruntime = 10 * sim.Millisecond
	if !rq.ShouldPreempt(waker) {
		t.Fatal("far-behind waker should preempt")
	}
	waker.Vruntime = rq.Current().Vruntime
	if rq.ShouldPreempt(waker) {
		t.Fatal("equal vruntime should not preempt")
	}
}

func TestCFSDequeue(t *testing.T) {
	rq := NewRunqueue()
	a, b, c := NewEntity(1, 0), NewEntity(2, 0), NewEntity(3, 0)
	rq.Enqueue(a, false)
	rq.Enqueue(b, false)
	rq.Enqueue(c, false)
	rq.Dequeue(b)
	if rq.Len() != 2 {
		t.Fatalf("len = %d", rq.Len())
	}
	seen := map[int]bool{}
	for rq.Len() > 0 {
		seen[rq.PickNext().ID] = true
		rq.Retire()
	}
	if seen[2] {
		t.Fatal("dequeued entity still picked")
	}
	rq.Dequeue(b) // double dequeue is a no-op
	rq.Enqueue(a, false)
	rq.Enqueue(a, false) // double enqueue is a no-op
	if rq.Len() != 1 {
		t.Fatalf("double enqueue duplicated: len=%d", rq.Len())
	}
}

func TestCFSVruntimeMonotoneProperty(t *testing.T) {
	// Property: picking always yields the minimum vruntime among queued
	// entities, and min_vruntime never decreases.
	f := func(vruntimes []uint32) bool {
		rq := NewRunqueue()
		for i, v := range vruntimes {
			e := NewEntity(i, 0)
			e.Vruntime = sim.Duration(v)
			rq.Enqueue(e, false)
		}
		prevMin := sim.Duration(-1)
		prevPick := sim.Duration(-1)
		for rq.Len() > 0 {
			e := rq.PickNext()
			if e.Vruntime < prevPick {
				return false
			}
			prevPick = e.Vruntime
			if rq.MinVruntime() < prevMin {
				return false
			}
			prevMin = rq.MinVruntime()
			rq.Retire()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalStrings(t *testing.T) {
	for _, s := range []Signal{SIGUSR1, SIGSEGV, SIGKILL, SIGTERM, Signal(77)} {
		if s.String() == "" {
			t.Fatal("empty signal name")
		}
	}
}

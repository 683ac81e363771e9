package uproc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/smas"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// observedRun drives a two-core domain with virtual protection keys
// through every layer-1 seam the observers hook, with AttachObs and
// AttachJourney each called attaches times:
//   - 14 park-loop uProcesses share 13 hardware slots, so slots are
//     evicted and refilled and every gate crossing retires WRPKRUs;
//   - a SENDUIPI to core 1 before it starts is deferred and flushes when
//     the core starts;
//   - a SENDUIPI to core 0 under the suppress bit is suppressed and
//     flushes when its receiver is re-attached;
//   - a preemption of running core 0 is delivered;
//   - uProcess "evil" reads another region and is killed by the fault
//     path, then its region and key are reclaimed.
func observedRun(t *testing.T, attaches int) (*obs.Observer, *journey.Tracer) {
	t.Helper()
	d := newDomain(t, 2)
	if err := d.S.EnableVirtualKeys(); err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	tr := journey.NewTracer(journey.Config{Retain: true})
	for range attaches {
		d.AttachObs(o)
		d.AttachJourney(tr)
	}
	var first *UProc
	for i := range 14 {
		name := fmt.Sprintf("p%02d", i)
		u, err := d.CreateUProc(name, parkLoopProgram(d, name))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = u
		}
		d.AttachThread(i%2, u.Threads()[0])
	}
	evilAsm := cpu.NewAssembler()
	evilAsm.Emit(cpu.Call{Target: d.GatePark.Entry})
	evilAsm.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: uint64(first.Image.Region.Base)})
	evilAsm.Emit(cpu.Load{Dst: cpu.RAX, Base: cpu.RCX})
	evilAsm.Emit(cpu.Halt{})
	evil, err := d.CreateUProc("evil", &smas.Program{
		Name: "evil", Asm: evilAsm, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, evil.Threads()[0])

	send := func(core int) {
		t.Helper()
		if _, err := d.Sched.SendUIPI(core); err != nil {
			t.Fatal(err)
		}
	}
	c0, c1 := d.Machine.Core(0), d.Machine.Core(1)
	send(1) // core 1 not started: deferred
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	c0.Run(200)
	r0 := d.cores[0].receiver
	r0.Suppress(true)
	send(0) // suppressed
	r0.Suppress(false)
	c0.Run(100)
	r0.Detach()
	r0.Attach(c0) // flushes the suppressed post
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	// Reclaim evil as soon as it dies, while its slot is still resident,
	// so freeing its region frees a hardware key.
	reclaimed := false
	for range 6 {
		c0.Run(100)
		c1.Run(100)
		if !reclaimed && evil.State == UProcTerminated && d.RunningOn(evil) < 0 {
			if err := d.ReclaimRegion(evil); err != nil {
				t.Fatal(err)
			}
			reclaimed = true
		}
	}
	if !reclaimed {
		t.Fatal("evil was not killed and reclaimed")
	}
	if err := d.Preempt(0, SchedCommand{}); err != nil { // delivered
		t.Fatal(err)
	}
	c0.Run(100)
	for _, c := range []*cpu.Core{c0, c1} {
		if c.Fault != nil {
			t.Fatalf("core %d faulted: %v", c.ID, c.Fault)
		}
	}
	return o, tr
}

// observedBytes renders everything both observers recorded: the obs
// timeline and registry, the journey flight recorder and the journey
// text export.
func observedBytes(t *testing.T, o *obs.Observer, tr *journey.Tracer) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("== obs timeline\n")
	if err := o.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== obs registry\n")
	b.WriteString(o.Reg().Snapshot().String())
	b.WriteString("== journey flight\n")
	for _, e := range tr.Flight().Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	b.WriteString("== journey text\n")
	if err := tr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLayer1ObservationGolden pins, byte for byte, what the obs and
// journey observers record across the layer-1 seams: gate crossings,
// SENDUIPI dispositions with their deferred-delivery windows, PIR
// flushes, WRPKRU, protection-key alloc/free, a containment kill, and
// virtual-key evictions and refills.
func TestLayer1ObservationGolden(t *testing.T) {
	o, tr := observedRun(t, 1)
	reg := o.Reg()
	for _, c := range []string{
		"uproc.gate.park", "uproc.gate.schedule", "uproc.wrpkru",
		"uproc.uintr.delivered", "uproc.uintr.deferred", "uproc.uintr.suppressed", "uproc.uintr.flush",
		"uproc.pkey.alloc", "uproc.pkey.free", "uproc.kill.fault",
		"uproc.vpkey.evict", "uproc.vpkey.refill",
	} {
		if reg.Counter(c) == 0 {
			t.Errorf("run never reached %s", c)
		}
	}
	windows := 0
	for _, sp := range o.Spans() {
		if sp.Cat == obs.CatUintr && sp.Name == "uintr.deferred" {
			windows++
		}
	}
	if windows == 0 {
		t.Error("no uintr.deferred span")
	}
	journeys := 0
	for _, r := range tr.Records() {
		if strings.HasPrefix(r.Name, "uintr.core") {
			journeys++
		}
	}
	if journeys == 0 {
		t.Error("no uintr.core* journey")
	}
	got := observedBytes(t, o, tr)
	path := filepath.Join("testdata", "observe.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("%s differs from the golden: %s", path, d)
	}
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are equal.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// TestAttachTwiceRecordsOnce: attaching the same observers a second time
// replaces them rather than stacking a second set of seam hooks, so every
// seam is recorded once.
func TestAttachTwiceRecordsOnce(t *testing.T) {
	o1, tr1 := observedRun(t, 1)
	o2, tr2 := observedRun(t, 2)
	if d := firstDiff(observedBytes(t, o2, tr2), observedBytes(t, o1, tr1)); d != "" {
		t.Fatalf("attaching twice (got) records differently from once (want) at %s", d)
	}
}

// TestUintrDeferredWindowFolds: deferred posts to a descheduled receiver
// fold into one window that opens at the first post and closes when the
// PIR flushes; a reattach with nothing posted adds no span.
func TestUintrDeferredWindowFolds(t *testing.T) {
	d := newDomain(t, 1)
	o := obs.New(16)
	d.AttachObs(o)
	u, err := d.CreateUProc("p", parkLoopProgram(d, "p"))
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, u.Threads()[0])
	c := d.Machine.Core(0)
	r := d.cores[0].receiver
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	c.Run(100)
	r.Detach()
	open := d.coreTime(c)
	for range 2 {
		if _, err := d.Sched.SendUIPI(0); err != nil {
			t.Fatal(err)
		}
		c.Run(20)
	}
	r.Attach(c)
	shut := d.coreTime(c)
	r.Detach()
	r.Attach(c) // nothing posted: no window
	var windows []obs.Span
	for _, sp := range o.Spans() {
		if sp.Cat == obs.CatUintr {
			windows = append(windows, sp)
		}
	}
	want := obs.Span{Core: 0, Start: open, End: shut, Cat: obs.CatUintr, Name: "uintr.deferred"}
	if len(windows) != 1 || windows[0] != want || open == shut {
		t.Fatalf("windows = %+v, want [%+v]", windows, want)
	}
	if got := o.Reg().Counter("uproc.uintr.deferred"); got != 2 {
		t.Fatalf("deferred sends = %d, want 2", got)
	}
}

package uintr

import (
	"fmt"
	"reflect"
	"testing"

	"vessel/internal/cpu"
)

// TestOnSendDispositionGolden drives one sender through all four SENDUIPI
// dispositions — delivered, deferred, suppressed, dropped — and checks the
// OnSend observations against a golden event list. The deferred-delivery
// window closes on reattach, so the receiver's OnFlush must appear after
// every deferred OnSend that fed the PIR and before any later sends: the
// ordering journey tracing relies on to close SegUintr windows correctly.
func TestOnSendDispositionGolden(t *testing.T) {
	e := newEnv(t)
	r := NewReceiver(1, e.handlerAddr())
	r.Attach(e.core)
	s := NewSender(4, cpu.Default(), nil)
	if err := s.Register(0, r, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(1, r, 9); err != nil {
		t.Fatal(err)
	}

	var events []string
	s.OnSend = func(idx int, vector uint8, o Outcome) {
		events = append(events, fmt.Sprintf("send idx=%d vec=%d %s", idx, vector, o))
	}
	r.OnFlush = func(flushed uint64) {
		events = append(events, fmt.Sprintf("flush pir=%#x", flushed))
	}
	send := func(idx int) {
		t.Helper()
		if _, err := s.SendUIPI(idx); err != nil {
			t.Fatal(err)
		}
	}

	send(0) // attached: delivered
	r.Detach()
	send(0)          // descheduled: deferred into the PIR
	send(1)          // second vector joins the same deferred window
	r.Attach(e.core) // window closes: OnFlush fires with both vectors
	r.Suppress(true)
	send(0) // SN set: suppressed
	r.Suppress(false)
	s.Interpose = func(idx int, vector uint8) Tamper { return Tamper{Drop: true} }
	send(0) // interposer swallows it: dropped

	golden := []string{
		"send idx=0 vec=7 delivered",
		"send idx=0 vec=7 deferred",
		"send idx=1 vec=9 deferred",
		"flush pir=0x280", // bits 7 and 9, flushed together
		"send idx=0 vec=7 suppressed",
		"send idx=0 vec=7 dropped",
	}
	if !reflect.DeepEqual(events, golden) {
		t.Fatalf("disposition events:\n got  %q\n want %q", events, golden)
	}
	if s.Sent != 5 || s.Dropped != 1 {
		t.Fatalf("Sent=%d Dropped=%d, want 5 and 1", s.Sent, s.Dropped)
	}
}

// TestOnSendNilObserverUnchanged pins that installing no OnSend hook leaves
// every disposition path silent and functional — the observer is optional.
func TestOnSendNilObserverUnchanged(t *testing.T) {
	e := newEnv(t)
	r := NewReceiver(1, e.handlerAddr())
	s := NewSender(2, cpu.Default(), nil)
	if err := s.Register(0, r, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendUIPI(0); err != nil { // deferred, no hook
		t.Fatal(err)
	}
	if r.Pending() != 1<<3 {
		t.Fatalf("pending = %#x, want bit 3", r.Pending())
	}
	r.Attach(e.core) // flush, no hook
	if r.Pending() != 0 {
		t.Fatal("flush did not drain the PIR")
	}
}

// Package uintr models Intel's user interrupts (UINTR, §2.2): a receiver
// holds a User Posted Interrupt Descriptor (UPID); each sender holds a User
// Interrupt Target Table (UITT) whose entries point at UPIDs. SENDUIPI posts
// the vector into the UPID and — when the receiver is running with user
// interrupts enabled — triggers delivery straight into the receiver's
// registered user handler, with no kernel involvement. If the receiver has
// been context-switched out, delivery is deferred until it runs again.
package uintr

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/sim"
)

// UPID is the User Posted Interrupt Descriptor. Hardware state is reduced
// to what the semantics need: the posted-interrupt requests bitmap (PIR),
// the outstanding-notification flag (ON), and suppression (SN).
type UPID struct {
	PIR uint64 // posted vectors awaiting delivery
	ON  bool   // a notification is outstanding
	SN  bool   // suppress notifications (receiver opted out temporarily)
}

// Outcome classifies the disposition of one SENDUIPI, for observers.
type Outcome uint8

const (
	// Delivered: the notification reached (or was scheduled to reach) the
	// receiver's handler directly.
	Delivered Outcome = iota
	// Deferred: the receiver was descheduled; the vector parked in the PIR.
	Deferred
	// Suppressed: the UPID's SN bit swallowed the notification.
	Suppressed
	// Dropped: the fault-injection interposer discarded the post.
	Dropped
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Deferred:
		return "deferred"
	case Suppressed:
		return "suppressed"
	case Dropped:
		return "dropped"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Receiver is a thread-side endpoint: a UPID plus the binding to the core
// the receiver thread currently occupies (nil when descheduled).
type Receiver struct {
	ID      int
	upid    UPID
	core    *cpu.Core
	handler mem.Addr
	// Delivered counts vectors that reached the handler; Deferred counts
	// posts that arrived while the receiver was descheduled.
	Delivered uint64
	Deferred  uint64
	// OnFlush, when non-nil, fires in Attach whenever deferred vectors
	// flush from the PIR to the newly attached core — the close of a
	// deferred-delivery window.
	OnFlush func(flushed uint64)
}

// NewReceiver returns a receiver with no core attached. The handler address
// is recorded at registration time, mirroring uintr_register_handler().
func NewReceiver(id int, handler mem.Addr) *Receiver {
	return &Receiver{ID: id, handler: handler}
}

// Attach marks the receiver as running on core and flushes any vectors that
// were posted while it was descheduled (deferred delivery, §2.2).
func (r *Receiver) Attach(core *cpu.Core) {
	r.core = core
	core.HandlerAddr = r.handler
	if r.upid.PIR != 0 {
		flushed := r.upid.PIR
		core.PendingVectors |= r.upid.PIR
		r.upid.PIR = 0
		r.upid.ON = false
		if r.OnFlush != nil {
			r.OnFlush(flushed)
		}
	}
}

// Detach marks the receiver as descheduled. Vectors already forwarded to
// the core but not yet recognised move back into the UPID so they are not
// lost across the context switch.
func (r *Receiver) Detach() {
	if r.core != nil {
		r.upid.PIR |= r.core.PendingVectors
		r.core.PendingVectors = 0
		r.core.HandlerAddr = 0
		r.core = nil
	}
}

// Suppress sets or clears the UPID suppress-notification bit.
func (r *Receiver) Suppress(on bool) { r.upid.SN = on }

// Pending returns the deferred vector bitmap.
func (r *Receiver) Pending() uint64 { return r.upid.PIR }

// UITTEntry routes a sender's connection index to a receiver UPID with a
// fixed vector, as built by uintr_register_sender().
type UITTEntry struct {
	Receiver *Receiver
	Vector   uint8
	Valid    bool
	// deliver is the notification body, built once at Register time so the
	// SendUIPI hot path hands the engine a prebuilt func instead of
	// allocating a fresh closure per send.
	deliver func()
}

// Tamper is a fault-injection verdict on one SENDUIPI: the interposer can
// drop the post entirely (a lost interrupt). Delayed delivery is built on
// Drop — the injector swallows the post and re-sends it later from its own
// virtual-time queue.
type Tamper struct {
	Drop bool
}

// Sender is a core-side UITT. SendUIPI(idx) consults entry idx.
type Sender struct {
	uitt  []UITTEntry
	eng   *sim.Engine // optional: when set, delivery is charged as an event
	costs *cpu.CostModel
	// inflight tracks engine-scheduled deliveries that have not yet fired,
	// so a domain teardown can cancel them instead of letting stale
	// notifications land in a resurrected receiver.
	inflight *sim.EventGroup
	Sent     uint64
	// Interpose, when non-nil, sees every send before it is posted and may
	// tamper with it — the fault-injection harness models dropped and
	// delayed Uintrs here, between SENDUIPI and the UPID.
	Interpose func(idx int, vector uint8) Tamper
	// Dropped counts sends discarded by the interposer.
	Dropped uint64
	// OnSend, when non-nil, observes every SENDUIPI with its disposition,
	// after the send is resolved but before any delayed delivery fires.
	OnSend func(idx int, vector uint8, o Outcome)
}

// NewSender creates a sender with capacity table entries. eng may be nil for
// immediate (layer-1, instruction-stepped) delivery.
func NewSender(capacity int, costs *cpu.CostModel, eng *sim.Engine) *Sender {
	if costs == nil {
		costs = cpu.Default()
	}
	s := &Sender{uitt: make([]UITTEntry, capacity), costs: costs, eng: eng}
	if eng != nil {
		s.inflight = sim.NewEventGroup(eng)
	}
	return s
}

// CancelInflight cancels every scheduled-but-undelivered notification,
// returning how many were cancelled. A layer-1 sender (nil engine)
// delivers synchronously and has nothing in flight. Call this when the
// receiving domain is torn down, so deferred deliveries cannot fire into
// whatever reuses the engine next.
func (s *Sender) CancelInflight() int { return s.inflight.CancelAll() }

// Inflight returns how many scheduled deliveries have not yet fired.
func (s *Sender) Inflight() int { return s.inflight.Pending() }

// Register installs a route to recv with the given vector at index idx,
// mirroring the kernel's UITT management syscalls.
func (s *Sender) Register(idx int, recv *Receiver, vector uint8) error {
	if idx < 0 || idx >= len(s.uitt) {
		return fmt.Errorf("uintr: UITT index %d out of range", idx)
	}
	if recv == nil {
		return fmt.Errorf("uintr: nil receiver")
	}
	entry := UITTEntry{Receiver: recv, Vector: vector, Valid: true}
	r, vec := recv, vector
	entry.deliver = func() {
		// The receiver may have been descheduled between post and
		// notification; re-check and defer if so.
		if r.core == nil {
			r.upid.PIR |= 1 << (vec & 63)
			r.upid.ON = true
			r.Deferred++
			return
		}
		r.core.PostUserInterrupt(vec)
		r.Delivered++
	}
	s.uitt[idx] = entry
	return nil
}

// Unregister invalidates index idx.
func (s *Sender) Unregister(idx int) {
	if idx >= 0 && idx < len(s.uitt) {
		s.uitt[idx] = UITTEntry{}
	}
}

// SendUIPI posts the interrupt routed by UITT entry idx. An invalid entry
// is a general-protection fault in hardware; we return an error. The
// returned duration is the modeled send cost on the sending core.
func (s *Sender) SendUIPI(idx int) (sim.Duration, error) {
	if idx < 0 || idx >= len(s.uitt) || !s.uitt[idx].Valid {
		return 0, fmt.Errorf("uintr: senduipi with invalid UITT index %d (#GP)", idx)
	}
	e := &s.uitt[idx]
	r := e.Receiver
	s.Sent++
	if s.Interpose != nil {
		if t := s.Interpose(idx, e.Vector); t.Drop {
			s.Dropped++
			if s.OnSend != nil {
				s.OnSend(idx, e.Vector, Dropped)
			}
			return s.costs.UintrSend, nil
		}
	}
	if r.upid.SN {
		// Suppressed: post into PIR only; no notification.
		r.upid.PIR |= 1 << (e.Vector & 63)
		r.Deferred++
		if s.OnSend != nil {
			s.OnSend(idx, e.Vector, Suppressed)
		}
		return s.costs.UintrSend, nil
	}
	if r.core == nil {
		// Receiver descheduled: defer until it is attached again.
		r.upid.PIR |= 1 << (e.Vector & 63)
		r.upid.ON = true
		r.Deferred++
		if s.OnSend != nil {
			s.OnSend(idx, e.Vector, Deferred)
		}
		return s.costs.UintrSend, nil
	}
	if s.OnSend != nil {
		s.OnSend(idx, e.Vector, Delivered)
	}
	if s.eng != nil {
		s.inflight.Add(s.eng.After(s.costs.UintrDeliver, e.deliver))
	} else {
		e.deliver()
	}
	return s.costs.UintrSend, nil
}

// Connect wires a core's SENDUIPI instruction hook to this sender, so
// layer-1 programs can issue senduipi directly.
func (s *Sender) Connect(core *cpu.Core) {
	core.Hooks.OnSendUIPI = func(c *cpu.Core, idx cpu.Word) {
		// Instruction-level sends ignore errors the way hardware
		// raises #GP: an invalid index halts via a fault hook in real
		// use; here we simply drop it (tests cover the error path via
		// the method API).
		_, _ = s.SendUIPI(int(idx))
	}
}

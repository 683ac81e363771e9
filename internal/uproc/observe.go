package uproc

import (
	"fmt"

	"vessel/internal/callgate"
	"vessel/internal/cpu"
	"vessel/internal/mpk"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/uintr"
	"vessel/internal/vpkey"
)

// coreTime converts a core's cycle counter to virtual time under the
// machine's cost model — the layer-1 clock the observability spans use.
// Each core's clock is its own (layer-1 cores step independently), which is
// exactly the semantics a per-core timeline wants.
func (d *Domain) coreTime(c *cpu.Core) sim.Time {
	return sim.Time(int64(d.Machine.NsFor(c.Cycles)))
}

// obsMark drops an instant marker at the core's current time, when an
// observer is attached.
func (d *Domain) obsMark(c *cpu.Core, cat obs.Category, name string) {
	if d.Obs != nil {
		d.Obs.Mark(c.ID, d.coreTime(c), cat, name)
	}
}

// AttachObs makes o the domain's observability layer. It records WRPKRU
// retirement on every core, call-gate body invocations, SENDUIPI
// dispositions with their deferred-delivery windows, protection-key
// lifecycle and virtual-key slot movement. Attaching again replaces the
// observer; attaching nil is a no-op.
func (d *Domain) AttachObs(o *obs.Observer) {
	if o == nil {
		return
	}
	d.Obs = o
	d.hookSeams()
}

// AttachJourney makes t the domain's request-journey tracer. Every
// call-gate body invocation and SENDUIPI disposition lands in its flight
// recorder, and each deferred-delivery window becomes a journey named
// uintr.coreN that lives in the uintr segment until the window closes.
// Attaching again replaces the tracer; attaching nil is a no-op.
func (d *Domain) AttachJourney(t *journey.Tracer) {
	if t == nil {
		return
	}
	d.Journey = t
	d.hookSeams()
}

// uintrWindow is one receiver's deferred-delivery window (§4.3, §4.5):
// open from the first SENDUIPI that finds the receiver descheduled or
// suppressed until its PIR flushes on reattach. Later posts fold into the
// open window, as the PIR bitmap folds them. The obs span and the journey
// are cut from the same open and close instants.
type uintrWindow struct {
	open  bool
	since sim.Time
	// j is the window's journey, minted at the first post the tracer saw.
	j *journey.Journey
}

// hookSeams installs one hook per layer-1 seam, the first time an
// observer attaches; each hook feeds d.Obs and d.Journey, whichever are
// set. A domain nobody observes installs nothing, so its gate and WRPKRU
// paths make no indirect call.
func (d *Domain) hookSeams() {
	if d.observed {
		return
	}
	d.observed = true

	// WRPKRU: one span per retired write, spanning the modeled cost, on
	// the writing core's own clock — the libmpk probe.
	wrCost := sim.Duration(int64(d.Machine.NsFor(d.Machine.Costs.WrPkruCycles)))
	onWrPkru := func(c *cpu.Core, _ mpk.PKRU) {
		if o := d.Obs; o != nil {
			at := d.coreTime(c)
			o.Span(c.ID, at, at.Add(wrCost), obs.CatWrPkru, "")
			o.Charge(c.ID, "", obs.CatWrPkru, wrCost)
			o.Reg().Inc("uproc.wrpkru")
		}
	}
	for i := range d.Machine.NumCores() {
		d.Machine.Core(i).Hooks.OnWrPkru = onWrPkru
	}

	// Gate crossings: every runtime-function body that runs privileged.
	d.RT.OnInvoke = func(c *cpu.Core, _ callgate.FuncID, name string) {
		if d.Obs != nil {
			d.obsMark(c, obs.CatGate, name)
			d.Obs.Reg().Inc("uproc.gate." + name)
		}
		if d.Journey != nil {
			d.Journey.Event(d.coreTime(c), "gate.invoke", name)
		}
	}

	// UINTR: UITT index i routes to core i, so every send names a core.
	d.Sched.OnSend = d.onSend
	for i, cs := range d.cores {
		cs.receiver.OnFlush = func(flushed uint64) { d.onFlush(i, flushed) }
	}

	// Protection-key lifecycle (pkey_alloc/pkey_free pressure).
	d.S.Keys.OnAlloc = func(mpk.PKey) {
		if reg := d.Obs.Reg(); reg != nil {
			reg.Inc("uproc.pkey.alloc")
			reg.Observe("uproc.pkey.inuse", int64(mpk.NumKeys-d.S.Keys.Available()))
		}
	}
	d.S.Keys.OnFree = func(mpk.PKey) { d.Obs.Reg().Inc("uproc.pkey.free") }

	// Virtualized protection keys: evictions and refills are overlay
	// markers on the driving core, with the lazy re-tag volume counted.
	if vt := d.S.VKeys; vt != nil {
		vt.OnEvict = func(core int, vk vpkey.VKey, _ mpk.PKey, pages int) { d.onVKey("evict", core, vk, pages) }
		vt.OnRefill = func(core int, vk vpkey.VKey, _ mpk.PKey, pages int) { d.onVKey("refill", core, vk, pages) }
	}
}

// onSend observes one SENDUIPI: obs counts it by disposition, the tracer
// logs it, and a deferred or suppressed post opens the receiver's window.
func (d *Domain) onSend(idx int, vector uint8, out uintr.Outcome) {
	at := d.coreTime(d.Machine.Core(idx))
	if d.Obs != nil {
		d.Obs.Reg().Inc("uproc.uintr." + out.String())
	}
	if d.Journey != nil {
		d.Journey.Event(at, "uintr.send", fmt.Sprintf("idx=%d vec=%d out=%s", idx, vector, out))
	}
	if out != uintr.Deferred && out != uintr.Suppressed {
		return
	}
	w := &d.cores[idx].window
	if !w.open {
		w.open, w.since = true, at
	}
	if w.j == nil && d.Journey != nil {
		w.j = d.Journey.Mint(fmt.Sprintf("uintr.core%d", idx), at)
		w.j.To(journey.SegUintr, at)
	}
}

// onFlush closes core i's window: its receiver reattached and the posted
// vectors reached the handler.
func (d *Domain) onFlush(i int, flushed uint64) {
	at := d.coreTime(d.Machine.Core(i))
	w := &d.cores[i].window
	if w.open {
		w.open = false
		d.Obs.Span(i, w.since, max(at, w.since), obs.CatUintr, "uintr.deferred")
	}
	d.Obs.Reg().Inc("uproc.uintr.flush")
	if d.Journey != nil {
		d.Journey.Event(at, "uintr.flush", fmt.Sprintf("idx=%d vectors=%d", i, flushed))
	}
	if w.j != nil {
		w.j.Finish(at)
		w.j = nil
	}
}

// onVKey observes a virtual-key slot eviction or refill; core is -1 when
// no core drove it.
func (d *Domain) onVKey(kind string, core int, vk vpkey.VKey, pages int) {
	if d.Obs == nil {
		return
	}
	if core >= 0 && core < d.Machine.NumCores() {
		d.obsMark(d.Machine.Core(core), obs.CatVPkey, fmt.Sprintf("%s:v%d", kind, vk))
	}
	d.Obs.Reg().Inc("uproc.vpkey." + kind)
	d.Obs.Reg().Add("uproc.vpkey.retag_pages", uint64(pages))
}

// obsKill records a watchdog or containment kill as an instant marker and a
// registry counter ("uproc.kill.watchdog" / "uproc.kill.fault").
func (d *Domain) obsKill(c *cpu.Core, kind, uprocName string) {
	if d.Obs != nil {
		d.obsMark(c, obs.CatWatchdog, kind+":"+uprocName)
		d.Obs.Reg().Inc("uproc.kill." + kind)
	}
	// A kill is a black-box moment: snapshot the journey flight recorder
	// so the postmortem carries the events leading up to it.
	if d.Journey != nil {
		at := d.coreTime(c)
		d.Journey.Event(at, "uproc.kill", kind+":"+uprocName)
		d.Journey.Dump(at, "uproc.kill."+kind+":"+uprocName)
	}
}

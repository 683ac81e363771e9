// Package faultinject is the deterministic chaos harness of the
// reproduction: a seed-driven injector that subjects a running scheduling
// domain to the failure modes the paper's isolation story (§4) must
// survive — PKRU-violating wild writes, crashes at the call gate before
// privilege is raised, crashes inside the trusted runtime, runaway threads
// that stop calling park(), dropped or delayed scheduler Uintrs, and
// wedged dataplane queues.
//
// Identical (Plan, seed) inputs expand to an identical injection schedule,
// and because the simulation itself is deterministic, to an identical
// containment event trace — the property the chaos tests assert by
// comparing trace.EventLog fingerprints across runs.
package faultinject

import (
	"fmt"
	"sort"

	"vessel/internal/dataplane"
	"vessel/internal/mem"
	"vessel/internal/mpk"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/uintr"
	"vessel/internal/uproc"
)

// Kind enumerates the injectable failure modes.
type Kind uint8

const (
	// WildWrite injects a PKRU-violating store attributed to the target
	// uProcess — the classic stray pointer into a sibling's region or the
	// runtime's. Must be contained: only the offender dies.
	WildWrite Kind = iota
	// GateCrash injects a fault at the park gate's entry while the target
	// still runs with its application PKRU — a crash mid call-gate
	// transition, before stage 1 raises privilege. Contained like any
	// application fault.
	GateCrash
	// RuntimeCrash injects a fault while the core holds the privileged
	// PKRU — a bug inside the trusted runtime itself. The domain
	// fail-stops that core by design; the harness verifies the blast
	// radius stays on the one core.
	RuntimeCrash
	// Runaway makes the target uProcess stop parking: every subsequent
	// park() is suppressed, so only preemption and the watchdog can get
	// its cores back.
	Runaway
	// DropUintr discards the next scheduler Uintr aimed at Core.
	DropUintr
	// DelayUintr holds the next scheduler Uintr aimed at Core for Delay of
	// virtual time, then re-sends it.
	DelayUintr
	// WedgeQueue wedges the named dataplane queue (polls come back empty)
	// for Delay of virtual time.
	WedgeQueue
	// CoreStall wedges the core itself: it stops retiring instructions and
	// its cycle counter freezes, with no fault recorded — the failure the
	// phi-accrual detector must catch from the missing heartbeat alone.
	// Recovery is core fencing, not containment.
	CoreStall
	// DomainCrash fail-stops every core of the domain at once — the
	// trusted runtime dying wholesale. Recovery is a supervised domain
	// restart with full state reconciliation.
	DomainCrash
	// PolicyPanic attacks the attached scheduler policy (AttachPolicy):
	// with zero Delay the policy's next decision panics; with a positive
	// Delay the next decision is charged that many extra cycles, blowing
	// the per-decision budget. Either way the failsafe wrapper must swap
	// in the round-robin fallback.
	PolicyPanic
	// UintrStorm drops every scheduler Uintr for Delay of virtual time —
	// a loss storm on the upcall channel, not just one dropped send.
	UintrStorm
	// PkeyLeak allocates a protection key that no region owns, modelling
	// a lost pkey_free — the libmpk leak class. Reconciliation must find
	// and reclaim it.
	PkeyLeak
	// PkeyThrash force-evicts every unpinned resident virtual key — an
	// eviction storm against the virtual protection-key layer. Each
	// evicted uProcess's next activation pays a full refill; the
	// isolation oracles must hold throughout. A no-op (with a note) in
	// domains without virtualized keys.
	PkeyThrash
	// ClusterPolicyPanic attacks the cluster-scope scheduling policy
	// (AttachClusterPolicy) — the ghOSt-style upper level that decides
	// core grants and revokes — the same way PolicyPanic attacks the
	// per-domain policy: zero Delay panics the next decision, positive
	// Delay burns that many extra cycles into it. The cluster's failsafe
	// wrapper must swap in the static fallback.
	ClusterPolicyPanic
	numKinds
)

func (k Kind) String() string {
	switch k {
	case WildWrite:
		return "wildwrite"
	case GateCrash:
		return "gatecrash"
	case RuntimeCrash:
		return "runtimecrash"
	case Runaway:
		return "runaway"
	case DropUintr:
		return "dropuintr"
	case DelayUintr:
		return "delayuintr"
	case WedgeQueue:
		return "wedgequeue"
	case CoreStall:
		return "corestall"
	case DomainCrash:
		return "domaincrash"
	case PolicyPanic:
		return "policypanic"
	case UintrStorm:
		return "uintrstorm"
	case PkeyLeak:
		return "pkeyleak"
	case PkeyThrash:
		return "pkeythrash"
	case ClusterPolicyPanic:
		return "clusterpolicypanic"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind is the inverse of String, used by the plan decoder.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q", s)
}

// Fault is one planned injection.
type Fault struct {
	Kind Kind
	// At is the virtual time at or after which the fault fires. Faults
	// aimed at a uProcess additionally wait until the target is actually
	// running on some core.
	At sim.Time
	// Target names the uProcess (WildWrite, GateCrash, RuntimeCrash,
	// Runaway) or the dataplane queue (WedgeQueue) under attack.
	Target string
	// Core aims the Uintr kinds at a core's scheduler channel.
	Core int
	// Delay parameterises DelayUintr and WedgeQueue; zero picks a
	// seed-derived default.
	Delay sim.Duration
}

// Plan declares an injection schedule. Identical plans (including Seed)
// always expand to identical schedules.
type Plan struct {
	Seed   uint64
	Faults []Fault
	// Random, when positive, appends Random extra faults with kinds drawn
	// from RandomKinds, uProcess targets from RandomTargets, cores uniform
	// in [0, RandomCores), and fire times uniform in [0, RandomWindow) —
	// all derived from Seed.
	Random        int
	RandomKinds   []Kind
	RandomTargets []string
	RandomCores   int
	RandomWindow  sim.Duration
}

// Expand returns the concrete, time-sorted injection schedule. The sort is
// stable, so equal-time faults keep their declaration (then generation)
// order and the schedule is a pure function of the plan.
func (p Plan) Expand() []Fault {
	out := append([]Fault(nil), p.Faults...)
	if p.Random > 0 && len(p.RandomKinds) > 0 {
		rng := sim.NewRNG(p.Seed ^ 0x9e3779b97f4a7c15)
		window := p.RandomWindow
		if window <= 0 {
			window = 100 * sim.Microsecond
		}
		cores := p.RandomCores
		if cores <= 0 {
			cores = 1
		}
		for i := 0; i < p.Random; i++ {
			f := Fault{
				Kind: p.RandomKinds[rng.IntN(len(p.RandomKinds))],
				At:   sim.Time(rng.Float64() * float64(window)),
				Core: rng.IntN(cores),
			}
			if len(p.RandomTargets) > 0 {
				f.Target = p.RandomTargets[rng.IntN(len(p.RandomTargets))]
			}
			f.Delay = sim.Duration(1+rng.IntN(10)) * sim.Microsecond
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// timedResend is a delayed Uintr awaiting re-send.
type timedResend struct {
	at   sim.Time
	core int
}

// timedUnwedge is a wedged queue awaiting release.
type timedUnwedge struct {
	at   sim.Time
	name string
	q    *dataplane.Queue
}

// Injector drives a Plan against a live uproc.Domain. It owns the park
// filter and the scheduler sender's interposer; construct it with New
// before the run starts and call Step once per scheduling quantum with the
// engine clock already advanced.
type Injector struct {
	d        *uproc.Domain
	rng      *sim.RNG
	schedule []Fault
	next     int
	// pending holds armed uProcess-targeted faults waiting for their
	// target to be running on some core.
	pending []Fault

	queues    map[string]*dataplane.Queue
	runaway   map[string]bool
	resend    []timedResend
	unwedge   []timedUnwedge
	drop      map[int]int
	delay     map[int]sim.Duration
	resending bool
	// stormUntil: while the clock is before it, every send is dropped
	// (UintrStorm). policy is the attached scheduler-policy attack surface.
	stormUntil    sim.Time
	policy        PolicyTarget
	clusterPolicy PolicyTarget

	// Counters tallies injections by kind and outcome, in deterministic
	// (insertion) order.
	Counters *stats.Counters
}

// New expands the plan and wires the injector into the domain: it installs
// the domain's ParkFilter (runaway modelling) and the scheduler sender's
// Interpose hook (drop/delay). Injection events are recorded into
// d.Events when the domain has an event log attached.
func New(d *uproc.Domain, plan Plan) *Injector {
	inj := &Injector{
		d:        d,
		rng:      sim.NewRNG(plan.Seed),
		schedule: plan.Expand(),
		queues:   make(map[string]*dataplane.Queue),
		runaway:  make(map[string]bool),
		drop:     make(map[int]int),
		delay:    make(map[int]sim.Duration),
		Counters: stats.NewCounters(),
	}
	d.ParkFilter = func(u *uproc.UProc) bool { return !inj.runaway[u.Name] }
	d.Sched.Interpose = inj.interpose
	return inj
}

// RegisterQueue makes a dataplane queue addressable by WedgeQueue faults.
func (inj *Injector) RegisterQueue(q *dataplane.Queue) { inj.queues[q.Name] = q }

// PolicyTarget is the scheduler-policy attack surface PolicyPanic faults
// drive. The failsafe policy wrapper (internal/selfheal) implements it:
// InjectPanic makes the wrapped policy's next decision panic, InjectBurn
// charges the next decision the given extra cycles so it blows the
// per-decision budget.
type PolicyTarget interface {
	InjectPanic()
	InjectBurn(cycles int64)
}

// AttachPolicy makes the scheduler policy addressable by PolicyPanic
// faults. Without one attached, PolicyPanic injections are skipped (and
// counted as such).
func (inj *Injector) AttachPolicy(p PolicyTarget) { inj.policy = p }

// AttachClusterPolicy makes the cluster-scope scheduling policy (the
// clustersched failsafe wrapper) addressable by ClusterPolicyPanic
// faults. Without one attached, those injections are skipped (and
// counted as such).
func (inj *Injector) AttachClusterPolicy(p PolicyTarget) { inj.clusterPolicy = p }

// attackPolicy arms target's next decision: a panic for zero delay, a
// cycle burn of delay cycles otherwise. kind prefixes the event names;
// what names the target in the skip note when none is attached.
func (inj *Injector) attackPolicy(target PolicyTarget, kind, what string, delay sim.Duration) {
	switch {
	case target == nil:
		inj.note("inject.skip", kind+"panic: no "+what+" attached")
	case delay > 0:
		target.InjectBurn(int64(delay))
		inj.note("inject."+kind+"burn", fmt.Sprintf("cycles=%d", int64(delay)))
	default:
		target.InjectPanic()
		inj.note("inject."+kind+"panic", "")
	}
}

// Pending returns the number of armed faults still waiting for their
// target (plus schedule entries not yet due).
func (inj *Injector) Pending() int { return len(inj.pending) + (len(inj.schedule) - inj.next) }

// note counts and logs one injector action.
func (inj *Injector) note(name, detail string) {
	inj.Counters.Inc(name)
	if inj.d.Events != nil {
		inj.d.Events.Record(inj.d.Eng.Now(), name, detail)
	}
}

// interpose is the Sender.Interpose hook: it applies any armed drop or
// delay verdict for the targeted core. Delayed sends are modelled as a
// drop plus a re-send from the injector's own virtual-time queue (the
// layer-1 sender delivers immediately, so there is no engine to defer on).
func (inj *Injector) interpose(idx int, vector uint8) uintr.Tamper {
	if inj.resending {
		return uintr.Tamper{}
	}
	if inj.d.Eng.Now() < inj.stormUntil {
		// Loss storm: every send on every core is discarded, silently from
		// the sender's point of view — only the counter records it, since
		// per-drop events would dominate the log during a long storm.
		inj.Counters.Inc("inject.uintr.storm-drop")
		return uintr.Tamper{Drop: true}
	}
	if n := inj.drop[idx]; n > 0 {
		inj.drop[idx] = n - 1
		inj.note("inject.uintr.drop", fmt.Sprintf("core=%d", idx))
		return uintr.Tamper{Drop: true}
	}
	if dl, ok := inj.delay[idx]; ok {
		delete(inj.delay, idx)
		inj.resend = append(inj.resend, timedResend{at: inj.d.Eng.Now().Add(dl), core: idx})
		inj.note("inject.uintr.delay", fmt.Sprintf("core=%d delay=%v", idx, dl))
		return uintr.Tamper{Drop: true}
	}
	return uintr.Tamper{}
}

// Step fires every injection due at or before now, retries faults whose
// target was not yet running, re-sends delayed Uintrs, and releases wedged
// queues whose delay elapsed.
func (inj *Injector) Step(now sim.Time) {
	for inj.next < len(inj.schedule) && inj.schedule[inj.next].At <= now {
		inj.pending = append(inj.pending, inj.schedule[inj.next])
		inj.next++
	}
	kept := inj.pending[:0]
	for _, f := range inj.pending {
		if !inj.fire(f, now) {
			kept = append(kept, f)
		}
	}
	inj.pending = kept

	keptR := inj.resend[:0]
	for _, r := range inj.resend {
		if r.at <= now {
			inj.resending = true
			_, _ = inj.d.Sched.SendUIPI(r.core)
			inj.resending = false
			inj.note("inject.uintr.resend", fmt.Sprintf("core=%d", r.core))
		} else {
			keptR = append(keptR, r)
		}
	}
	inj.resend = keptR

	keptU := inj.unwedge[:0]
	for _, w := range inj.unwedge {
		if w.at <= now {
			w.q.SetWedged(false)
			inj.note("inject.unwedge", fmt.Sprintf("queue=%s", w.name))
		} else {
			keptU = append(keptU, w)
		}
	}
	inj.unwedge = keptU
}

// fire attempts one injection; it reports whether the fault is consumed
// (false means "retry next Step" — the target was not in a injectable
// state yet).
func (inj *Injector) fire(f Fault, now sim.Time) bool {
	switch f.Kind {
	case Runaway:
		inj.runaway[f.Target] = true
		inj.note("inject.runaway", fmt.Sprintf("uproc=%s", f.Target))
		return true
	case DropUintr:
		inj.drop[f.Core]++
		inj.note("inject.uintr.arm-drop", fmt.Sprintf("core=%d", f.Core))
		return true
	case DelayUintr:
		dl := f.Delay
		if dl <= 0 {
			dl = 5 * sim.Microsecond
		}
		inj.delay[f.Core] = dl
		inj.note("inject.uintr.arm-delay", fmt.Sprintf("core=%d delay=%v", f.Core, dl))
		return true
	case WedgeQueue:
		q, ok := inj.queues[f.Target]
		if !ok {
			inj.note("inject.skip", fmt.Sprintf("queue=%s not registered", f.Target))
			return true
		}
		dl := f.Delay
		if dl <= 0 {
			dl = 10 * sim.Microsecond
		}
		q.SetWedged(true)
		inj.unwedge = append(inj.unwedge, timedUnwedge{at: now.Add(dl), name: f.Target, q: q})
		inj.note("inject.wedge", fmt.Sprintf("queue=%s delay=%v", f.Target, dl))
		return true
	case CoreStall:
		if f.Core < 0 || f.Core >= inj.d.Machine.NumCores() {
			inj.note("inject.skip", fmt.Sprintf("corestall core=%d out of range", f.Core))
			return true
		}
		inj.d.Machine.Core(f.Core).Stalled = true
		inj.note("inject.corestall", fmt.Sprintf("core=%d", f.Core))
		return true
	case DomainCrash:
		// The trusted runtime dies wholesale: raise a privileged-mode fault
		// on every core, so each takes the uncontained fail-stop path and
		// the whole domain goes dark at one instant.
		priv := inj.d.S.RuntimePKRU()
		for i := 0; i < inj.d.Machine.NumCores(); i++ {
			c := inj.d.Machine.Core(i)
			if c.Fault != nil {
				continue // already dead
			}
			c.PKRU = priv
			c.Inject(&mem.Fault{Addr: smas.RuntimeBase, Kind: mem.FaultPKU, Op: mpk.AccessWrite})
		}
		inj.note("inject.domaincrash", fmt.Sprintf("cores=%d", inj.d.Machine.NumCores()))
		return true
	case PolicyPanic:
		inj.attackPolicy(inj.policy, "policy", "policy", f.Delay)
		return true
	case ClusterPolicyPanic:
		inj.attackPolicy(inj.clusterPolicy, "clusterpolicy", "cluster policy", f.Delay)
		return true
	case UintrStorm:
		dl := f.Delay
		if dl <= 0 {
			dl = 20 * sim.Microsecond
		}
		inj.stormUntil = now.Add(dl)
		inj.note("inject.uintr.storm", fmt.Sprintf("until=%d", int64(inj.stormUntil)))
		return true
	case PkeyLeak:
		k, err := inj.d.S.Keys.Alloc()
		if err != nil {
			inj.note("inject.skip", "pkeyleak: no key free")
			return true
		}
		inj.note("inject.pkeyleak", fmt.Sprintf("key=%d", k))
		return true
	case PkeyThrash:
		if inj.d.S.VKeys == nil {
			inj.note("inject.skip", "pkeythrash: keys not virtualized")
			return true
		}
		evicted, pages := inj.d.S.VKeys.Thrash()
		inj.note("inject.pkeythrash", fmt.Sprintf("evicted=%d pages=%d", evicted, pages))
		return true
	case WildWrite, GateCrash, RuntimeCrash:
		return inj.fireCrash(f)
	default:
		inj.note("inject.skip", fmt.Sprintf("unknown kind %d", f.Kind))
		return true
	}
}

// fireCrash injects a synthetic memory fault attributed to the target
// uProcess on whichever core currently runs it.
func (inj *Injector) fireCrash(f Fault) bool {
	core := -1
	var u *uproc.UProc
	for i := 0; i < inj.d.Machine.NumCores(); i++ {
		t := inj.d.Current(i)
		if t != nil && t.U.Name == f.Target && t.U.State != uproc.UProcTerminated {
			core, u = i, t.U
			break
		}
	}
	if u == nil {
		return false // target not running anywhere yet; retry
	}
	c := inj.d.Machine.Core(core)
	priv := inj.d.S.RuntimePKRU()
	switch f.Kind {
	case WildWrite:
		if c.PKRU == priv {
			return false // mid-gate: wait for application mode
		}
		addr := inj.wildAddr(u)
		inj.note("inject.wildwrite", fmt.Sprintf("core=%d uproc=%s addr=%#x", core, u.Name, uint64(addr)))
		c.Inject(&mem.Fault{Addr: addr, Kind: mem.FaultPKU, Op: mpk.AccessWrite})
	case GateCrash:
		if c.PKRU == priv {
			return false
		}
		inj.note("inject.gatecrash", fmt.Sprintf("core=%d uproc=%s", core, u.Name))
		c.Inject(&mem.Fault{Addr: inj.d.GatePark.Entry, Kind: mem.FaultPerm, Op: mpk.AccessExec})
	case RuntimeCrash:
		// Model a bug in the privileged runtime: the core is in
		// privileged mode when the fault hits, so containment correctly
		// refuses and the core fail-stops.
		c.PKRU = priv
		inj.note("inject.runtimecrash", fmt.Sprintf("core=%d uproc=%s", core, u.Name))
		c.Inject(&mem.Fault{Addr: smas.RuntimeBase, Kind: mem.FaultPKU, Op: mpk.AccessWrite})
	}
	return true
}

// wildAddr picks a seed-driven victim address outside the offender's own
// region: a live sibling's region base or the runtime region.
func (inj *Injector) wildAddr(from *uproc.UProc) mem.Addr {
	var victims []mem.Addr
	for _, v := range inj.d.UProcs() {
		if v != from && v.State == uproc.UProcRunning {
			victims = append(victims, v.Image.Region.Base)
		}
	}
	victims = append(victims, smas.RuntimeBase)
	base := victims[inj.rng.IntN(len(victims))]
	return base + mem.Addr(inj.rng.IntN(64)*8)
}

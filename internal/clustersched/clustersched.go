// Package clustersched is the cluster's two-level core scheduler: the
// coarse-grained mechanism layer of the NRK model (domains request and
// yield cores; the cluster answers with deterministic CoreGranted /
// CoreRevoked upcalls delivered at domain step boundaries in virtual
// time) with a ghOSt-style pluggable policy layer on top (scheduling
// decisions are *transactions* — a proposed set of grant/revoke moves,
// of which the cluster commits only those still valid against the live
// core ledger, reporting per-move commit/fail).
//
// Three rules govern the package, the same three as the rest of the
// reproduction:
//
//   - Determinism. The ledger, the upcall queues, and every policy
//     shipped here iterate in fixed order over virtual time; identical
//     runs produce byte-identical Report.Canonical output (the
//     conformance oracle CheckClusterSched re-derives the invariants
//     from the report alone).
//   - No double-grant, ever. A core is owned by at most one domain. A
//     grant committed for a core whose previous owner has not yet
//     actuated the matching revoke upcall is *held back* (head-of-line
//     in the grantee's upcall queue) until the revoke is delivered, so
//     a core can never be online in two domains at once.
//   - Fault isolation. The policy runs behind a Failsafe wrapper
//     (failsafe.go): a panicking or budget-blowing policy is swapped
//     one-way for the minimal static fallback, and the swap is visible
//     in the report and the event log.
package clustersched

import (
	"fmt"

	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/trace"
)

// Topology is the simple core→NUMA-node map the executor caches key off:
// cores are split into contiguous nodes of CoresPerNode each.
type Topology struct {
	Cores        int
	CoresPerNode int
}

// Node maps a core to its NUMA node.
func (t Topology) Node(core int) int {
	if t.CoresPerNode <= 0 {
		return 0
	}
	return core / t.CoresPerNode
}

// Nodes returns the node count.
func (t Topology) Nodes() int {
	if t.CoresPerNode <= 0 || t.Cores <= 0 {
		return 1
	}
	return (t.Cores + t.CoresPerNode - 1) / t.CoresPerNode
}

// MoveKind is the type of one transaction move.
type MoveKind uint8

const (
	// Grant assigns a free core to a domain.
	Grant MoveKind = iota
	// Revoke takes a core back from its owning domain.
	Revoke
)

func (k MoveKind) String() string {
	switch k {
	case Grant:
		return "grant"
	case Revoke:
		return "revoke"
	default:
		return fmt.Sprintf("MoveKind(%d)", uint8(k))
	}
}

// Move is one proposed ledger change: grant Core to Domain, or revoke
// Core from Domain.
type Move struct {
	Kind   MoveKind
	Domain int
	Core   int
}

// Txn is a policy decision: a set of moves validated and committed *in
// order* against the live ledger — a revoke earlier in the transaction
// frees its core for a grant later in the same transaction. CostCycles
// models the decision's own cost and is charged against the failsafe's
// per-decision budget.
type Txn struct {
	Moves      []Move
	CostCycles int64
}

// MoveStatus is the per-move commit verdict of a transaction.
type MoveStatus struct {
	Move
	OK bool
	// Reason explains a refusal ("owned", "fenced", "last-core", ...).
	Reason string
}

// TxnResult reports what a transaction actually did.
type TxnResult struct {
	Seq       int
	At        sim.Time
	Policy    string
	Moves     []MoveStatus
	Committed int
	Failed    int
}

// Op is one committed ledger operation, in commit order — the record the
// conformance oracle replays. Delivered/DeliveredAt track the actuation:
// the upcall reaching the domain at a step boundary.
type Op struct {
	Seq         int
	Kind        MoveKind
	Domain      int
	Core        int
	At          sim.Time
	Delivered   bool
	DeliveredAt sim.Time
	// Moved counts threads re-homed by a revoke's actuation.
	Moved int
}

// Client is the domain-side actuation surface for upcalls. CoreGranted
// binds an executor and brings the core online; CoreRevoked re-homes the
// core's work and takes it offline, reporting how many threads moved.
type Client interface {
	CoreGranted(core int, at sim.Time) error
	CoreRevoked(core int, at sim.Time) (moved int, err error)
}

// PolicySwap records one policy change — a hot swap or a failsafe
// takeover.
type PolicySwap struct {
	At     sim.Time
	From   string
	To     string
	Reason string
}

// MinPerDomain is the floor below which a revoke is refused: every
// domain keeps at least one core, so its runqueue can never strand with
// nowhere to re-home.
const MinPerDomain = 1

// Config sizes a Sched.
type Config struct {
	Topo    Topology
	Domains int
	// MaxPerDomain, when positive, caps any one domain's granted cores.
	MaxPerDomain int
	// Events, when non-nil, receives the grant/revoke/swap event stream.
	Events *trace.EventLog
}

// Sched is the cluster-level core scheduler: the authoritative core
// ledger, per-domain request ("want") bookkeeping, per-domain upcall
// queues, and the active policy. It is the mechanism; policies only
// propose.
type Sched struct {
	cfg    Config
	owner  []int // per core: owning domain, or -1
	fenced []bool
	// want is each domain's outstanding RequestCores balance.
	want []int
	// queueLen / violFrac are the upper layer's per-domain load signals,
	// refreshed by the driver before each Schedule.
	queueLen []int
	violFrac []float64
	// queues holds, per domain, the seqs of committed ops whose upcalls
	// have not yet been delivered (FIFO).
	queues [][]int
	// pendingRevoke[core] is the seq of a committed-but-unactuated revoke
	// (-1 when none): a later grant of the same core is held back behind
	// it so the core is never online in two domains at once.
	pendingRevoke []int
	ops           []Op
	txns          []TxnResult
	swaps         []PolicySwap
	policy        Policy
	swapLogged    bool
	// Counters tallies scheduler actions in deterministic order.
	Counters *stats.Counters
}

// New builds an empty ledger: every core free, no policy decisions yet.
func New(cfg Config, policy Policy) (*Sched, error) {
	if cfg.Topo.Cores <= 0 {
		return nil, fmt.Errorf("clustersched: need at least one core")
	}
	if cfg.Domains <= 0 {
		return nil, fmt.Errorf("clustersched: need at least one domain")
	}
	if policy == nil {
		policy = Static{}
	}
	s := &Sched{
		cfg:           cfg,
		owner:         make([]int, cfg.Topo.Cores),
		fenced:        make([]bool, cfg.Topo.Cores),
		want:          make([]int, cfg.Domains),
		queueLen:      make([]int, cfg.Domains),
		violFrac:      make([]float64, cfg.Domains),
		queues:        make([][]int, cfg.Domains),
		pendingRevoke: make([]int, cfg.Topo.Cores),
		policy:        policy,
		Counters:      stats.NewCounters(),
	}
	for i := range s.owner {
		s.owner[i] = -1
		s.pendingRevoke[i] = -1
	}
	return s, nil
}

func (s *Sched) event(at sim.Time, name, detail string) { s.cfg.Events.Record(at, name, detail) }

// Owner returns the domain owning a core, or -1.
func (s *Sched) Owner(core int) int { return s.owner[core] }

// Granted returns the cores a domain owns, ascending.
func (s *Sched) Granted(domain int) []int {
	var out []int
	for c, d := range s.owner {
		if d == domain {
			out = append(out, c)
		}
	}
	return out
}

// GrantedCount returns how many cores a domain owns.
func (s *Sched) GrantedCount(domain int) int {
	n := 0
	for _, d := range s.owner {
		if d == domain {
			n++
		}
	}
	return n
}

// FreeCores returns the unowned, unfenced cores, ascending.
func (s *Sched) FreeCores() []int {
	var out []int
	for c, d := range s.owner {
		if d == -1 && !s.fenced[c] {
			out = append(out, c)
		}
	}
	return out
}

// RequestCores is the domain syscall surface: domain asks for n more
// cores. The request only adjusts the want balance; the policy decides
// whether (and which cores) to grant at the next Schedule.
func (s *Sched) RequestCores(domain, n int, at sim.Time) error {
	if domain < 0 || domain >= s.cfg.Domains {
		return fmt.Errorf("clustersched: domain %d out of range", domain)
	}
	if n <= 0 {
		return fmt.Errorf("clustersched: request of %d cores", n)
	}
	s.want[domain] += n
	s.Counters.Add("clustersched.request", uint64(n))
	s.event(at, "csched.request", fmt.Sprintf("domain=%d n=%d want=%d", domain, n, s.want[domain]))
	return nil
}

// Want returns a domain's outstanding request balance.
func (s *Sched) Want(domain int) int { return s.want[domain] }

// YieldCore is the domain syscall surface for giving a core back. The
// yield commits immediately as a single-move transaction (policy
// "yield"); the revoke upcall still flows through the domain's queue so
// actuation happens at the next step boundary like any other revoke.
func (s *Sched) YieldCore(domain, core int, at sim.Time) error {
	if domain < 0 || domain >= s.cfg.Domains {
		return fmt.Errorf("clustersched: domain %d out of range", domain)
	}
	res := s.commit(Txn{Moves: []Move{{Kind: Revoke, Domain: domain, Core: core}}}, at, "yield")
	if res.Committed != 1 {
		return fmt.Errorf("clustersched: yield of core %d by domain %d refused: %s", core, domain, res.Moves[0].Reason)
	}
	s.Counters.Inc("clustersched.yield")
	return nil
}

// SetSignals refreshes a domain's load signals (runqueue backlog and the
// journey layer's SLO violation fraction) for the next policy decision.
func (s *Sched) SetSignals(domain, queueLen int, violFrac float64) {
	s.queueLen[domain] = queueLen
	s.violFrac[domain] = violFrac
}

// FenceCore withdraws a core from future grants (the self-healing layer
// calls this when a core is declared dead). An owned core stays on the
// ledger — the owning domain's own fencing machinery handles the
// domain-side — but it will never be granted again.
func (s *Sched) FenceCore(core int, at sim.Time) {
	if core < 0 || core >= len(s.fenced) || s.fenced[core] {
		return
	}
	s.fenced[core] = true
	s.Counters.Inc("clustersched.fence")
	s.event(at, "csched.fence", fmt.Sprintf("core=%d owner=%d", core, s.owner[core]))
}

// Fenced reports whether a core is withdrawn from grants.
func (s *Sched) Fenced(core int) bool { return s.fenced[core] }

// SetPolicy hot-swaps the active policy mid-run. The swap is recorded
// and visible in the report.
func (s *Sched) SetPolicy(p Policy, at sim.Time, reason string) {
	if p == nil {
		return
	}
	from := s.policy.Name()
	s.policy = p
	s.swapLogged = false
	s.swaps = append(s.swaps, PolicySwap{At: at, From: from, To: p.Name(), Reason: reason})
	s.Counters.Inc("clustersched.policy.swap")
	s.event(at, "csched.swap", fmt.Sprintf("from=%s to=%s reason=%s", from, p.Name(), reason))
}

// PolicyName returns the active policy's name.
func (s *Sched) PolicyName() string { return s.policy.Name() }

// view snapshots the ledger for a policy decision.
func (s *Sched) view(at sim.Time) View {
	v := View{
		Now:          at,
		Cores:        s.cfg.Topo.Cores,
		MinPerDomain: MinPerDomain,
		MaxPerDomain: s.cfg.MaxPerDomain,
		FreeCores:    s.FreeCores(),
		Owned:        make([][]int, s.cfg.Domains),
		Domains:      make([]DomainView, s.cfg.Domains),
	}
	for c := range s.fenced {
		if s.fenced[c] {
			v.Fenced++
		}
	}
	for d := 0; d < s.cfg.Domains; d++ {
		v.Owned[d] = s.Granted(d)
		v.Domains[d] = DomainView{
			ID:            d,
			Granted:       len(v.Owned[d]),
			Want:          s.want[d],
			QueueLen:      s.queueLen[d],
			ViolationFrac: s.violFrac[d],
		}
	}
	return v
}

// Schedule runs the active policy against the current ledger view and
// commits the resulting transaction. A swap performed inside the
// decision (the failsafe taking over) is recorded once.
func (s *Sched) Schedule(at sim.Time) TxnResult {
	before := s.policy.Name()
	txn := s.policy.Decide(s.view(at))
	res := s.commit(txn, at, s.policy.Name())
	if fw, ok := s.policy.(interface{ Swapped() (bool, string) }); ok && !s.swapLogged {
		if sw, reason := fw.Swapped(); sw {
			s.swapLogged = true
			s.swaps = append(s.swaps, PolicySwap{At: at, From: before, To: s.policy.Name(), Reason: "failsafe: " + reason})
			s.Counters.Inc("clustersched.failsafe.swap")
			s.event(at, "csched.failsafe", fmt.Sprintf("policy=%s reason=%s", s.policy.Name(), reason))
		}
	}
	return res
}

// Bootstrap grants every domain its first MinPerDomain cores (lowest
// free cores, domain order) through the normal commit path, so the
// initial allocation is on the ledger and in the oracle's replay like any
// other transaction.
func (s *Sched) Bootstrap(at sim.Time) (TxnResult, error) {
	var txn Txn
	free := s.FreeCores()
	next := 0
	for d := 0; d < s.cfg.Domains; d++ {
		for i := 0; i < MinPerDomain; i++ {
			if next >= len(free) {
				return TxnResult{}, fmt.Errorf("clustersched: bootstrap needs %d cores, only %d free", s.cfg.Domains*MinPerDomain, len(free))
			}
			txn.Moves = append(txn.Moves, Move{Kind: Grant, Domain: d, Core: free[next]})
			next++
		}
	}
	res := s.commit(txn, at, "bootstrap")
	if res.Failed > 0 {
		return res, fmt.Errorf("clustersched: bootstrap had %d refused moves", res.Failed)
	}
	return res, nil
}

// commit validates the transaction's moves in order against the live
// ledger and applies the valid ones: the ledger updates move by move, so
// a revoke earlier in the transaction frees its core for a later grant.
// Every committed move enqueues its upcall on the affected domain's
// queue; actuation happens at that domain's next Deliver.
func (s *Sched) commit(txn Txn, at sim.Time, policy string) TxnResult {
	res := TxnResult{Seq: len(s.txns), At: at, Policy: policy}
	for _, m := range txn.Moves {
		st := MoveStatus{Move: m}
		switch {
		case m.Core < 0 || m.Core >= len(s.owner):
			st.Reason = "core-range"
		case m.Domain < 0 || m.Domain >= s.cfg.Domains:
			st.Reason = "domain-range"
		case m.Kind == Grant && s.fenced[m.Core]:
			st.Reason = "fenced"
		case m.Kind == Grant && s.owner[m.Core] != -1:
			st.Reason = "owned"
		case m.Kind == Grant && s.cfg.MaxPerDomain > 0 && s.GrantedCount(m.Domain) >= s.cfg.MaxPerDomain:
			st.Reason = "max-per-domain"
		case m.Kind == Revoke && s.owner[m.Core] != m.Domain:
			st.Reason = "not-owner"
		case m.Kind == Revoke && s.GrantedCount(m.Domain) <= MinPerDomain:
			st.Reason = "last-core"
		default:
			st.OK = true
		}
		if !st.OK {
			res.Failed++
			res.Moves = append(res.Moves, st)
			s.Counters.Inc("clustersched.move.fail")
			continue
		}
		seq := len(s.ops)
		op := Op{Seq: seq, Kind: m.Kind, Domain: m.Domain, Core: m.Core, At: at}
		switch m.Kind {
		case Grant:
			s.owner[m.Core] = m.Domain
			if s.want[m.Domain] > 0 {
				s.want[m.Domain]--
			}
			s.Counters.Inc("clustersched.grant")
		case Revoke:
			s.owner[m.Core] = -1
			s.pendingRevoke[m.Core] = seq
			s.Counters.Inc("clustersched.revoke")
		}
		s.ops = append(s.ops, op)
		s.queues[m.Domain] = append(s.queues[m.Domain], seq)
		res.Committed++
		res.Moves = append(res.Moves, st)
		s.event(at, "csched."+m.Kind.String(), fmt.Sprintf("domain=%d core=%d seq=%d policy=%s", m.Domain, m.Core, seq, policy))
	}
	s.txns = append(s.txns, res)
	return res
}

// Deliver drains a domain's pending upcalls through the client — the
// step-boundary actuation point. Delivery is FIFO; a Grant whose core
// still has an unactuated Revoke (the previous owner has not drained it
// yet) blocks the queue head until the revoke is delivered, preventing
// the core from ever being online in two domains at once. Returns how
// many upcalls were delivered.
func (s *Sched) Deliver(domain int, at sim.Time, cl Client) (int, error) {
	q := s.queues[domain]
	delivered := 0
	for len(q) > 0 {
		seq := q[0]
		op := &s.ops[seq]
		if op.Kind == Grant && s.pendingRevoke[op.Core] >= 0 && s.pendingRevoke[op.Core] < seq {
			break // held back behind the previous owner's revoke actuation
		}
		var err error
		switch op.Kind {
		case Grant:
			err = cl.CoreGranted(op.Core, at)
		case Revoke:
			op.Moved, err = cl.CoreRevoked(op.Core, at)
		}
		if err != nil {
			s.queues[domain] = q
			return delivered, fmt.Errorf("clustersched: actuating %s core=%d domain=%d: %w", op.Kind, op.Core, domain, err)
		}
		op.Delivered = true
		op.DeliveredAt = at
		if op.Kind == Revoke && s.pendingRevoke[op.Core] == seq {
			s.pendingRevoke[op.Core] = -1
		}
		q = q[1:]
		delivered++
		s.Counters.Inc("clustersched.upcall")
	}
	s.queues[domain] = q
	return delivered, nil
}

// PendingUpcalls returns how many upcalls a domain has queued.
func (s *Sched) PendingUpcalls(domain int) int { return len(s.queues[domain]) }

// Ops returns the committed ledger operations in commit order.
func (s *Sched) Ops() []Op { return s.ops }

// Swaps returns the recorded policy swaps.
func (s *Sched) Swaps() []PolicySwap { return s.swaps }

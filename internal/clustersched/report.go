package clustersched

// Report is the scheduler's determinism witness: the full transaction
// and ledger-operation history with a canonical byte rendering.
// Identical runs produce byte-identical Canonical output at any test
// parallelism — the property the double-run gates of the conformance
// sweep and the cluster golden test hold.

import (
	"bytes"
	"fmt"

	"vessel/internal/sim"
	"vessel/internal/stats"
)

// Report is the outcome of a scheduling run.
type Report struct {
	Domains int
	Cores   int
	// Policy is the active policy's name at report time.
	Policy string
	Txns   []TxnResult
	Ops    []Op
	Swaps  []PolicySwap
	// Tallies, derived from the op history.
	Grants         int
	Revokes        int
	CommittedMoves int
	FailedMoves    int
	Delivered      int
	PendingUpcalls int
	// Actuation latency (virtual ns from commit to upcall delivery)
	// over all delivered ops.
	Actuation stats.Summary
	// FinalOwner is the ledger at report time: per core, the owning
	// domain or -1.
	FinalOwner []int
	Counters   *stats.Counters
}

// Report snapshots the scheduler's history.
func (s *Sched) Report() *Report {
	r := &Report{
		Domains:    s.cfg.Domains,
		Cores:      s.cfg.Topo.Cores,
		Policy:     s.policy.Name(),
		Txns:       append([]TxnResult(nil), s.txns...),
		Ops:        append([]Op(nil), s.ops...),
		Swaps:      append([]PolicySwap(nil), s.swaps...),
		FinalOwner: append([]int(nil), s.owner...),
		Counters:   s.Counters,
	}
	lat := stats.NewHistogram()
	for _, op := range r.Ops {
		switch op.Kind {
		case Grant:
			r.Grants++
		case Revoke:
			r.Revokes++
		}
		if op.Delivered {
			r.Delivered++
			lat.Record(int64(op.DeliveredAt.Sub(op.At)))
		}
	}
	for _, t := range r.Txns {
		r.CommittedMoves += t.Committed
		r.FailedMoves += t.Failed
	}
	for d := 0; d < s.cfg.Domains; d++ {
		r.PendingUpcalls += len(s.queues[d])
	}
	r.Actuation = lat.Summarize()
	return r
}

// Canonical renders the report deterministically; identical runs (and
// any -parallel width) produce byte-identical output.
func (r *Report) Canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "clustersched: domains=%d cores=%d policy=%s\n", r.Domains, r.Cores, r.Policy)
	fmt.Fprintf(&b, "moves: grants=%d revokes=%d committed=%d failed=%d delivered=%d pending=%d\n",
		r.Grants, r.Revokes, r.CommittedMoves, r.FailedMoves, r.Delivered, r.PendingUpcalls)
	fmt.Fprintf(&b, "actuation: n=%d p50=%d p99=%d max=%d\n",
		r.Actuation.Count, r.Actuation.P50, r.Actuation.P99, r.Actuation.Max)
	for _, t := range r.Txns {
		fmt.Fprintf(&b, "txn %d at=%d policy=%s committed=%d failed=%d:", t.Seq, int64(t.At), t.Policy, t.Committed, t.Failed)
		for _, m := range t.Moves {
			if m.OK {
				fmt.Fprintf(&b, " %s(d%d,c%d)", m.Kind, m.Domain, m.Core)
			} else {
				fmt.Fprintf(&b, " !%s(d%d,c%d:%s)", m.Kind, m.Domain, m.Core, m.Reason)
			}
		}
		b.WriteByte('\n')
	}
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "op %d %s d%d c%d at=%d delivered=%t", op.Seq, op.Kind, op.Domain, op.Core, int64(op.At), op.Delivered)
		if op.Delivered {
			fmt.Fprintf(&b, " dat=%d", int64(op.DeliveredAt))
		}
		if op.Kind == Revoke && op.Moved > 0 {
			fmt.Fprintf(&b, " moved=%d", op.Moved)
		}
		b.WriteByte('\n')
	}
	for _, sw := range r.Swaps {
		fmt.Fprintf(&b, "swap at=%d from=%s to=%s reason=%s\n", int64(sw.At), sw.From, sw.To, sw.Reason)
	}
	b.WriteString("owner:")
	for c, d := range r.FinalOwner {
		fmt.Fprintf(&b, " c%d=%d", c, d)
	}
	b.WriteByte('\n')
	b.WriteString(r.Counters.String())
	return b.Bytes()
}

// ActuationOK reports whether every delivered op actuated within the
// given virtual-time bound — the cluster golden test's latency gate.
func (r *Report) ActuationOK(bound sim.Duration) bool {
	return r.Actuation.Count == 0 || sim.Duration(r.Actuation.Max) <= bound
}

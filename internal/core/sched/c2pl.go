package sched

import (
	"fmt"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// c2pl is Cautious Two-Phase Lock (Nishio et al. [10]): strict 2PL plus a
// transaction precedence graph used to *predict* deadlocks. A request is
// granted iff it is not blocked and granting it would not create a
// precedence cycle; a deadlock-inducing request is delayed instead of
// aborting anything.
//
// Optional admission constraints turn c2pl into the Experiment 4
// lower-bound hybrids: CHAIN-C2PL (chain-form WTPG required) and K-C2PL
// (K-conflict bound required). Per the paper, those hybrids delay the
// start of violating transactions.
type c2pl struct {
	wtpgBase
	name string
	// preAdmit runs before registration (sees the table and the graph
	// without t), so a refusal leaves no state behind.
	preAdmit func(b *wtpgBase, t *txn.T) bool
}

// refusal is one memoised Delayed answer, kept in the transaction's
// record: the step refused and the lock-table and WTPG shape versions it
// was decided under. A request for the same step while neither version
// moved reads exactly what that one read, so it is answered Delayed again
// without the blocked test, C(q) or the cycle search (DESIGN.md §6).
type refusal struct {
	step         int
	locks, shape uint64
}

func newC2PL(costs Costs, name string, preAdmit func(b *wtpgBase, t *txn.T) bool) *c2pl {
	return &c2pl{
		wtpgBase: newWTPGBase(costs),
		name:     name,
		preAdmit: preAdmit,
	}
}

// NewC2PL returns a Cautious Two-Phase Lock scheduler.
func NewC2PL(costs Costs) Scheduler {
	return newC2PL(costs, "C2PL", nil)
}

// NewChainC2PL returns C2PL restricted to chain-form WTPGs — the lower
// bound isolating the benefit of CHAIN's structural constraint from its
// weight-based optimization (Experiment 4).
func NewChainC2PL(costs Costs) Scheduler {
	return newC2PL(costs, "CHAIN-C2PL", (*wtpgBase).staysChainForm)
}

// NewKC2PL returns C2PL restricted to K-conflict WTPGs — the lower bound
// isolating the benefit of K-WTPG's admission constraint from its use of
// weights (Experiment 4).
func NewKC2PL(costs Costs, k int) Scheduler {
	return newC2PL(costs, fmt.Sprintf("K%d-C2PL", k), func(b *wtpgBase, t *txn.T) bool {
		return !b.locks.WouldExceedK(t, k)
	})
}

func (c *c2pl) Name() string { return c.name }

func (c *c2pl) Admit(t *txn.T, now event.Time) Outcome {
	if c.preAdmit != nil && !c.preAdmit(&c.wtpgBase, t) {
		return Outcome{Decision: Aborted, CPU: c.costs.DDTime}
	}
	if err := c.register(t); err != nil {
		return Outcome{Decision: Delayed, CPU: c.costs.DDTime}
	}
	return Outcome{Decision: Granted, CPU: c.costs.DDTime}
}

func (c *c2pl) Request(t *txn.T, step int, now event.Time) Outcome {
	cpu := c.costs.DDTime
	// The versions are read before anything is decided: a refusal whose
	// grant attempt resolved edges before failing moved the shape version,
	// so its record can never match again.
	seen := refusal{step: step, locks: c.locks.Version(), shape: c.graph.ShapeVersion()}
	r, live := c.live.Get(t.ID)
	if live && r.refused == seen {
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	if c.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	targets := c.impliedTargets(t, step)
	if c.graph.WouldCycleFrom(t.ID, targets) || c.grant(t, step, targets) != nil {
		if live {
			r.refused = seen
		}
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	return Outcome{Decision: Granted, CPU: cpu}
}

func (c *c2pl) ObjectDone(t *txn.T, objects float64, now event.Time) {
	c.objectDone(t, objects)
}

func (c *c2pl) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return c.commit(t), 0
}

// Abort recovers from an external abort of an admitted transaction: the
// precedence test needs no extra repair beyond the base splice because
// c2pl keeps no cached plan, and its refusal memos are stamped with
// versions the abort advances.
func (c *c2pl) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return c.abort(t), c.costs.DDTime
}

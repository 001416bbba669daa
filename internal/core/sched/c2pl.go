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
//
// C2PL and K-C2PL decide from the lock table and resolved edges alone, so
// their WTPG gains an edge only when it is resolved; CHAIN-C2PL's
// chain-form test reads every conflicting-edge, so its family is eager
// (wtpgBase).
type c2pl struct {
	wtpgBase
	name string
	// preAdmit runs before registration (sees the table and the graph
	// without t), so a refusal leaves no state behind.
	preAdmit func(b *wtpgBase, t *txn.T) bool
}

func newC2PL(costs Costs, name string, eager bool, preAdmit func(b *wtpgBase, t *txn.T) bool) *c2pl {
	return &c2pl{
		wtpgBase: newWTPGBase(costs, eager),
		name:     name,
		preAdmit: preAdmit,
	}
}

// NewC2PL returns a Cautious Two-Phase Lock scheduler.
func NewC2PL(costs Costs) Scheduler {
	return newC2PL(costs, "C2PL", false, nil)
}

// NewChainC2PL returns C2PL restricted to chain-form WTPGs — the lower
// bound isolating the benefit of CHAIN's structural constraint from its
// weight-based optimization (Experiment 4).
func NewChainC2PL(costs Costs) Scheduler {
	return newC2PL(costs, "CHAIN-C2PL", true, (*wtpgBase).staysChainForm)
}

// NewKC2PL returns C2PL restricted to K-conflict WTPGs — the lower bound
// isolating the benefit of K-WTPG's admission constraint from its use of
// weights (Experiment 4).
func NewKC2PL(costs Costs, k int) Scheduler {
	return newC2PL(costs, fmt.Sprintf("K%d-C2PL", k), false, func(b *wtpgBase, t *txn.T) bool {
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
	if c.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	r, live := c.live.Get(t.ID)
	if !live { // never admitted: it declares nothing a grant could convert
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	// A step the cycle test refused is refused again, without C(q) or the
	// search, while every stay of the refusal's witness lasts: the path
	// it names still closes the cycle, and its far end's conflicting
	// declaration is still pending, since a grant of it would have
	// blocked the step (DESIGN.md §6).
	if r.refused == step && len(r.witness) > 0 && c.graph.Holds(r.witness) {
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	targets := c.impliedTargets(t, step)
	if w, cycle := c.graph.CycleWitness(r.witness[:0], t.ID, targets); cycle {
		r.refused, r.witness = step, w
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	if c.grant(t, step, targets) != nil {
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
// c2pl keeps no cached plan, and the splice ends the aborted stay, so
// every refusal witness through it stops holding.
func (c *c2pl) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return c.abort(t), c.costs.DDTime
}

package sched

import (
	"fmt"

	"batsched/internal/core/chainopt"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// chain is the Chain-WTPG scheduler CC1 (§3.2, "CHAIN"). It restricts the
// WTPG to chain form so the globally optimal full SR-order W — the one
// whose resolved WTPG has the shortest critical path — is computable in
// polynomial time, and then grants a lock-request only if the resolutions
// it implies are consistent with W.
//
// Per §3.4, W is recomputed only when a transaction has started or
// committed since the last computation or when KeepTime has elapsed;
// otherwise the most recently computed W is reused.
type chain struct {
	wtpgBase
	// W itself lives on the live transactions' records (txnRec.w).
	planAt     event.Time
	planDirty  bool
	havePlan   bool
	recomputes int
	// in is the optimiser's input, refilled for every chain solved, and
	// solver the DP scratch every chain is solved into.
	in     chainopt.Chain
	solver chainopt.Solver
}

// NewChain returns a Chain-WTPG scheduler.
func NewChain(costs Costs) Scheduler {
	return &chain{wtpgBase: newWTPGBase(costs)}
}

func (c *chain) Name() string { return "CHAIN" }

func (c *chain) Admit(t *txn.T, now event.Time) Outcome {
	// Step 0 of CC1: the WTPG must remain chain-form, tested by graph
	// traversal; otherwise the new transaction is aborted (resubmitted).
	if !c.staysChainForm(t) {
		return Outcome{Decision: Aborted, CPU: c.costs.DDTime}
	}
	if err := c.register(t); err != nil {
		return Outcome{Decision: Delayed, CPU: c.costs.DDTime}
	}
	c.planDirty = true
	return Outcome{Decision: Granted, CPU: c.costs.DDTime}
}

// refreshPlan recomputes W when §3.4's conditions demand it. It reports
// whether a recomputation happened (for CPU accounting).
//
// It cannot fail on a live graph. Chain form holds by construction: step
// 0 admits only arrivals that keep it, and a commit (Remove) or an abort
// (Splice) only takes nodes out. Solve fails only on a NaN, infinite or
// negative input, or when a path length overflows to +Inf. Every demand
// is checked where it enters (txn.T.CheckDemands): each is at most
// txn.MaxDemand, so every sum Solve forms over a chain stays finite. A
// failure here is a broken invariant, and it panics, as
// wtpg.Graph.Clone does.
func (c *chain) refreshPlan(now event.Time) bool {
	if c.havePlan && !c.planDirty && now-c.planAt < c.costs.KeepTime {
		return false
	}
	chains, ok := c.graph.Chains()
	if !ok {
		panic("sched: CHAIN invariant violated: WTPG not chain-form")
	}
	for _, ch := range chains {
		var sol chainopt.Solution
		if len(ch) > 1 {
			c.graph.ChainInput(ch, &c.in)
			var err error
			if sol, err = c.solver.Solve(c.in); err != nil { // sol.Orient is read before the next Solve
				panic(fmt.Sprintf("sched: CHAIN invariant violated: %v", err))
			}
		}
		// Edge k joins ch[k] and ch[k+1]: W puts one of them first, and
		// that one's record names the other.
		var prev *txnRec
		for k, id := range ch {
			r, _ := c.live.Get(id)
			r.w = [2]txn.ID{}
			if k > 0 {
				if sol.Orient[k-1] == chainopt.Down {
					prev.w[1] = id
				} else {
					r.w[0] = ch[k-1]
				}
			}
			prev = r
		}
	}
	c.planAt = now
	c.planDirty = false
	c.havePlan = true
	c.recomputes++
	return true
}

func (c *chain) Request(t *txn.T, step int, now event.Time) Outcome {
	cpu := c.costs.DDTime
	if c.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	if c.refreshPlan(now) {
		cpu += c.costs.ChainTime
	}
	r, _ := c.live.Get(t.ID)
	targets := c.impliedTargets(t, step)
	// Step 3 of CC1: delay if any implied resolution disagrees with W,
	// that is, if a target is not a chain neighbour W puts after t.
	for _, to := range targets {
		if r == nil || to != r.w[0] && to != r.w[1] {
			return Outcome{Decision: Delayed, CPU: cpu}
		}
	}
	if err := c.grant(t, step, targets); err != nil {
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	return Outcome{Decision: Granted, CPU: cpu}
}

func (c *chain) ObjectDone(t *txn.T, objects float64, now event.Time) {
	c.objectDone(t, objects)
}

func (c *chain) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	freed := c.commit(t)
	c.planDirty = true
	return freed, 0
}

// Abort recovers from an external abort of an admitted transaction: the
// base splice repairs the WTPG, which only loses a node and so stays
// chain-form, and the cached W is invalidated.
func (c *chain) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	freed := c.abort(t)
	c.planDirty = true
	return freed, c.costs.DDTime
}

package sched

import (
	"fmt"
	"slices"

	"batsched/internal/core/chainopt"
	"batsched/internal/core/wtpg"
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
	// plan maps each conflicting pair to the transaction W puts first.
	plan       map[pairKey]txn.ID
	planAt     event.Time
	planDirty  bool
	havePlan   bool
	recomputes int
	// in is chainInput's result, refilled for every chain solved, and
	// solver the DP scratch every chain is solved into.
	in     chainopt.Chain
	solver chainopt.Solver
}

type pairKey struct{ a, b txn.ID }

func pairOf(a, b txn.ID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewChain returns a Chain-WTPG scheduler.
func NewChain(costs Costs) Scheduler {
	return &chain{wtpgBase: newWTPGBase(costs), plan: make(map[pairKey]txn.ID)}
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
	clear(c.plan)
	for _, ch := range chains {
		if len(ch) < 2 {
			continue
		}
		sol, err := c.solver.Solve(c.chainInput(ch)) // sol.Orient is read before the next Solve
		if err != nil {
			panic(fmt.Sprintf("sched: CHAIN invariant violated: %v", err))
		}
		for k := 0; k+1 < len(ch); k++ {
			if sol.Orient[k] == chainopt.Down {
				c.plan[pairOf(ch[k], ch[k+1])] = ch[k]
			} else {
				c.plan[pairOf(ch[k], ch[k+1])] = ch[k+1]
			}
		}
	}
	c.planAt = now
	c.planDirty = false
	c.havePlan = true
	c.recomputes++
	return true
}

// chainInput converts one WTPG chain into the optimizer's input, carrying
// live w(T0→Ti) values, per-direction edge weights, and the orientations
// already fixed by earlier grants. The input's slices are the scheduler's
// own, refilled by the next call.
func (c *chain) chainInput(ch wtpg.Chain) chainopt.Chain {
	n := len(ch)
	in := &c.in
	in.R = slices.Grow(in.R[:0], n)[:n]
	in.Down = slices.Grow(in.Down[:0], n-1)[:n-1]
	in.Up = slices.Grow(in.Up[:0], n-1)[:n-1]
	in.Fixed = slices.Grow(in.Fixed[:0], n-1)[:n-1]
	clear(in.Fixed)
	for k, id := range ch {
		in.R[k] = c.graph.W0(id)
	}
	for k := 0; k+1 < n; k++ {
		e, ok := c.graph.EdgeBetween(ch[k], ch[k+1])
		if !ok {
			panic(fmt.Sprintf("sched: CHAIN invariant violated: chain edge (%v,%v) missing", ch[k], ch[k+1]))
		}
		down, up := e.WAB, e.WBA
		if e.A != ch[k] {
			down, up = up, down
		}
		in.Down[k], in.Up[k] = down, up
		if e.Dir != wtpg.Unresolved {
			if e.From() == ch[k] {
				in.Fixed[k] = chainopt.Down
			} else {
				in.Fixed[k] = chainopt.Up
			}
		}
	}
	return *in
}

func (c *chain) Request(t *txn.T, step int, now event.Time) Outcome {
	cpu := c.costs.DDTime
	if c.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	if c.refreshPlan(now) {
		cpu += c.costs.ChainTime
	}
	targets := c.impliedTargets(t, step)
	// Step 3 of CC1: delay if any implied resolution disagrees with W.
	for _, to := range targets {
		if first, ok := c.plan[pairOf(t.ID, to)]; !ok || first != t.ID {
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

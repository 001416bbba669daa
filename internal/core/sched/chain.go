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
	// degraded is set when the WTPG's chain form breaks or W becomes
	// uncomputable — a state pure CHAIN operation never produces, but
	// abort recovery and defensive programming must survive. In degraded
	// mode CHAIN admits only transactions that conflict with nothing live
	// (ASL-like: isolated nodes whose every request is trivially
	// grantable) and grants requests under C2PL's cautious cycle test
	// instead of consulting W, until the graph drains and full CHAIN
	// operation is restored. See docs/ROBUSTNESS.md.
	degraded bool
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
	if c.degraded {
		// Degraded admission: only transactions that conflict with
		// nothing live may enter, so the broken component drains while
		// isolated work keeps flowing.
		if err := c.register(t); err != nil {
			return Outcome{Decision: Delayed, CPU: c.costs.DDTime}
		}
		if c.graph.ConflictDegree(t.ID) > 0 {
			c.unregister(t)
			return Outcome{Decision: Aborted, CPU: c.costs.DDTime}
		}
		return Outcome{Decision: Granted, CPU: c.costs.DDTime}
	}
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
func (c *chain) refreshPlan(now event.Time) (bool, error) {
	if c.havePlan && !c.planDirty && now-c.planAt < c.costs.KeepTime {
		return false, nil
	}
	chains, ok := c.graph.Chains()
	if !ok {
		return false, fmt.Errorf("sched: CHAIN invariant violated: WTPG not chain-form")
	}
	// W is refilled in place: both error paths below end in degrade,
	// which replaces the map, so a half-filled plan is never read.
	clear(c.plan)
	for _, ch := range chains {
		if len(ch) < 2 {
			continue
		}
		in, err := c.chainInput(ch)
		if err != nil {
			return false, err
		}
		sol, err := c.solver.Solve(in) // sol.Orient is read before the next Solve
		if err != nil {
			return false, err
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
	return true, nil
}

// chainInput converts one WTPG chain into the optimizer's input, carrying
// live w(T0→Ti) values, per-direction edge weights, and the orientations
// already fixed by earlier grants. The input's slices are the scheduler's
// own, refilled by the next call.
func (c *chain) chainInput(ch wtpg.Chain) (chainopt.Chain, error) {
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
			return *in, fmt.Errorf("sched: chain edge (%v,%v) missing", ch[k], ch[k+1])
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
	return *in, nil
}

func (c *chain) Request(t *txn.T, step int, now event.Time) Outcome {
	cpu := c.costs.DDTime
	if c.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	if !c.degraded {
		recomputed, err := c.refreshPlan(now)
		if err != nil {
			// W is uncomputable (chain form broken, optimizer failure):
			// degrade instead of delaying this request forever.
			c.degrade()
		} else {
			if recomputed {
				cpu += c.costs.ChainTime
			}
			targets := c.impliedTargets(t, step)
			// Step 3 of CC1: delay if any implied resolution disagrees
			// with W.
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
	}
	// Degraded grants: C2PL's cautious cycle test, safe on any graph.
	targets := c.impliedTargets(t, step)
	if c.graph.WouldCycleFrom(t.ID, targets) {
		return Outcome{Decision: Delayed, CPU: cpu}
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
	c.maybeRestore()
	return freed, 0
}

// Abort recovers from an external abort of an admitted transaction: the
// base splice repairs the WTPG, the cached W is invalidated, and chain
// form is re-verified — if it no longer holds the scheduler degrades
// rather than wedging on an uncomputable plan.
func (c *chain) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	freed := c.abort(t)
	c.planDirty = true
	if !c.degraded {
		if _, ok := c.graph.Chains(); !ok {
			c.degrade()
		}
	}
	c.maybeRestore()
	return freed, c.costs.DDTime
}

// degrade enters the ASL/C2PL fallback mode and drops the stale plan.
func (c *chain) degrade() {
	c.degraded = true
	c.havePlan = false
	c.plan = make(map[pairKey]txn.ID)
}

// maybeRestore returns to full CHAIN operation once the graph has
// drained: an empty WTPG is trivially chain-form again.
func (c *chain) maybeRestore() {
	if c.degraded && c.live.Len() == 0 {
		c.degraded = false
		c.planDirty = true
	}
}

// Degraded reports whether the scheduler is running in its fallback
// mode (see Degradable).
func (c *chain) Degraded() bool { return c.degraded }

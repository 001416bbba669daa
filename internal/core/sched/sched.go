// Package sched implements the concurrency-control schedulers evaluated
// in the paper: the two WTPG schedulers (CHAIN, §3.2; K-WTPG, §3.3), the
// baselines ASL (Atomic Static Lock), C2PL (Cautious Two-Phase Lock) and
// NODC (NO Data Contention), and Experiment 4's lower-bound hybrids
// CHAIN-C2PL and K-C2PL.
//
// A scheduler is a decision oracle driven by the simulated control node:
// the simulator calls Admit when a transaction arrives (or is resubmitted
// after an admission rejection), Request when a transaction reaches a
// step, ObjectDone as bulk processing progresses (the WTPG weight
// messages of §3.1), and Commit at commitment. Every decision reports the
// control-node CPU it consumed, following Table 1's ddtime / chaintime /
// kwtpgtime parameters and §3.4's control-saving rules.
//
// No scheduler in this package ever *decides* to abort a running
// transaction: bulk operations are too expensive to redo, so all of them
// are deadlock-free by construction (atomic acquisition, cautious cycle
// tests, or W consistency). External failures are another matter — a
// caller may abandon an admitted transaction (a work error, a panic, its
// context ending while it waits), or a fault may be injected. For those
// the schedulers expose an abort-recovery path (Scheduler.Abort):
// locks are released, unresolved conflicting-edges retracted, resolved
// precedence spliced past the dead transaction (wtpg.Splice), and cached
// plans/estimates invalidated. A splice only removes a node, so CHAIN's
// WTPG stays chain-form and CHAIN has one mode (docs/ROBUSTNESS.md §3).
//
// The schedulers trust their input: every declared and true demand lies
// in [0, txn.MaxDemand]. The callers check that where a transaction
// enters (txn.T.CheckDemands in live.Controller.Admit and sim.Run).
package sched

import (
	"fmt"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// Decision is the outcome class of an Admit or Request call.
type Decision int

const (
	// Granted: the lock was granted (Request) or the transaction was
	// admitted (Admit).
	Granted Decision = iota
	// Blocked: the request conflicts with a held lock. The simulator
	// resubmits it when a lock on that partition is released.
	Blocked
	// Delayed: the scheduler's policy refuses the request for now (W
	// inconsistency, predicted deadlock, non-minimal E(q), failed atomic
	// acquisition). Resubmitted after the fixed retry delay (§3.2).
	Delayed
	// Aborted: admission rejected (chain-form or K-conflict violation).
	// The whole transaction is resubmitted after the fixed retry delay; no
	// work is lost because nothing has executed yet.
	Aborted
)

func (d Decision) String() string {
	switch d {
	case Granted:
		return "granted"
	case Blocked:
		return "blocked"
	case Delayed:
		return "delayed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Outcome is a decision plus the control-node CPU time it consumed.
type Outcome struct {
	Decision Decision
	CPU      event.Time
}

// Costs models the control-node CPU demands of Table 1 plus §3.4's
// control-saving period.
type Costs struct {
	// DDTime: one deadlock-prediction / graph-consistency test.
	DDTime event.Time
	// ChainTime: one recomputation of the optimal full SR-order W.
	ChainTime event.Time
	// KWTPGTime: one evaluation of E(q).
	KWTPGTime event.Time
	// KeepTime: period during which cached W / E values stay valid if no
	// invalidating event occurs (§3.4).
	KeepTime event.Time
}

// Scheduler is the control-node concurrency-control policy.
type Scheduler interface {
	// Name returns the paper's name for the scheduler (e.g. "CHAIN").
	Name() string
	// Admit registers an arriving transaction. Granted admits it;
	// Delayed/Aborted reject it (retry later) leaving no state behind.
	Admit(t *txn.T, now event.Time) Outcome
	// Request asks for the lock needed by step of t. Valid only for
	// admitted transactions.
	Request(t *txn.T, step int, now event.Time) Outcome
	// ObjectDone reports that t finished bulk processing of `objects`
	// objects (usually 1, possibly fractional at the tail of a step).
	// No scheduler reads now here or in Commit: it is there for the
	// observability wrapper, and the live controller reads the clock for
	// these calls only when one is attached (0, or the finish's first
	// reading, otherwise).
	ObjectDone(t *txn.T, objects float64, now event.Time)
	// Commit releases t's locks and removes it from control state,
	// returning the partitions whose waiters may now be grantable. The
	// slice may be the lock table's own, valid until the scheduler's next
	// call; a caller that keeps it longer copies it.
	Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time)
	// Abort is the recovery path for an admitted, possibly mid-flight
	// transaction: release its locks, retract its unresolved
	// conflicting-edges, splice resolved precedence past it, and repair
	// any scheduler-specific cached state (CHAIN's plan, K-WTPG's E
	// cache). Like Commit, it returns the partitions whose waiters may
	// now be grantable, valid until the scheduler's next call, plus the
	// control-CPU cost of the recovery. Schedulers never decide to abort
	// running work themselves; Abort exists for external failures — a
	// caller abandoning a live transaction (its work failed or its
	// context ended) or an injected fault.
	Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time)
}

// Factory builds a fresh scheduler instance for one simulation run.
type Factory struct {
	// Label is the display name used in result tables ("K2", "CHAIN"...).
	Label string
	New   func(costs Costs) Scheduler
}

// Standard factories for the paper's evaluated schedulers. K is the
// K-conflict bound; the paper evaluates K = 2 ("K2").
func NODCFactory() Factory {
	return Factory{Label: "NODC", New: func(Costs) Scheduler { return NewNODC() }}
}

// ASLFactory builds Atomic Static Lock schedulers.
func ASLFactory() Factory {
	return Factory{Label: "ASL", New: func(c Costs) Scheduler { return NewASL(c) }}
}

// C2PLFactory builds Cautious Two-Phase Lock schedulers.
func C2PLFactory() Factory {
	return Factory{Label: "C2PL", New: func(c Costs) Scheduler { return NewC2PL(c) }}
}

// ChainFactory builds Chain-WTPG schedulers.
func ChainFactory() Factory {
	return Factory{Label: "CHAIN", New: func(c Costs) Scheduler { return NewChain(c) }}
}

// KWTPGFactory builds K-conflict WTPG schedulers.
func KWTPGFactory(k int) Factory {
	return Factory{
		Label: fmt.Sprintf("K%d", k),
		New:   func(c Costs) Scheduler { return NewKWTPG(c, k) },
	}
}

// ChainC2PLFactory builds the CHAIN-C2PL lower-bound hybrid.
func ChainC2PLFactory() Factory {
	return Factory{Label: "CHAIN-C2PL", New: func(c Costs) Scheduler { return NewChainC2PL(c) }}
}

// KC2PLFactory builds the K-C2PL lower-bound hybrid.
func KC2PLFactory(k int) Factory {
	return Factory{
		Label: fmt.Sprintf("K%d-C2PL", k),
		New:   func(c Costs) Scheduler { return NewKC2PL(c, k) },
	}
}

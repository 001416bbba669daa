package sched

import (
	"batsched/internal/event"
	"batsched/internal/lock"
	"batsched/internal/txn"
)

// asl is Atomic Static Lock (Tay's ASL, [9]): a transaction starts if and
// only if it can hold every lock it needs at its start; otherwise the
// start is refused and retried later. ASL transactions never block
// mid-flight and the WTPG stays a set of isolated points, which avoids
// every chain of blocking at the price of admitting few transactions.
type asl struct {
	costs Costs
	locks *lock.Table
}

// NewASL returns an Atomic Static Lock scheduler.
func NewASL(costs Costs) Scheduler {
	return &asl{costs: costs, locks: lock.NewTable()}
}

func (a *asl) Name() string { return "ASL" }

func (a *asl) Admit(t *txn.T, now event.Time) Outcome {
	// All-or-nothing: every partition must be acquirable in the
	// transaction's strongest declared mode.
steps:
	for i, s := range t.Steps {
		for _, earlier := range t.Steps[:i] {
			if earlier.Part == s.Part {
				continue steps // checked in its strongest mode already
			}
		}
		mode, _ := t.LockMode(s.Part)
		if a.locks.IsBlocked(t.ID, s.Part, mode) {
			return Outcome{Decision: Delayed, CPU: a.costs.DDTime}
		}
	}
	if err := a.locks.Declare(t); err != nil {
		return Outcome{Decision: Delayed, CPU: a.costs.DDTime}
	}
	for i := range t.Steps {
		if err := a.locks.Grant(t.ID, t.Steps[i].Part, i); err != nil {
			// Cannot happen: acquirability was just checked and the
			// control node is single-threaded. Roll back defensively.
			a.locks.Release(t.ID)
			return Outcome{Decision: Delayed, CPU: a.costs.DDTime}
		}
	}
	return Outcome{Decision: Granted, CPU: a.costs.DDTime}
}

func (a *asl) Request(t *txn.T, step int, now event.Time) Outcome {
	// Locks were acquired atomically at start.
	return Outcome{Decision: Granted}
}

func (a *asl) ObjectDone(*txn.T, float64, event.Time) {}

func (a *asl) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return a.locks.Release(t.ID), 0
}

// Abort releases everything the transaction acquired atomically at
// start; ASL keeps no graph state to repair.
func (a *asl) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return a.locks.Release(t.ID), 0
}

// CheckInvariants verifies the lock table holds no conflicting locks.
func (a *asl) CheckInvariants() error { return a.locks.CheckInvariants() }

// LockHolders returns the transactions holding a granted lock on p (see
// wtpgBase.LockHolders).
func (a *asl) LockHolders(p txn.PartitionID) []txn.ID { return a.locks.Holders(p) }

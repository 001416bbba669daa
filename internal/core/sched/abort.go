package sched

import (
	"batsched/internal/event"
	"batsched/internal/txn"
)

// Aborter is implemented by schedulers with a dedicated abort-recovery
// path for an admitted, possibly mid-flight transaction: release its
// locks, retract its unresolved conflicting-edges, splice resolved
// precedence past it, and repair any scheduler-specific cached state
// (CHAIN's plan, K-WTPG's E cache). Like Commit, Abort returns the
// partitions whose waiters may now be grantable plus the control-CPU
// cost of the recovery; like Commit's, the slice is valid only until the
// scheduler's next call.
//
// Schedulers never *decide* to abort running work themselves (the
// package's deadlock-freedom promise stands); Abort exists for external
// failures — a caller abandoning a live transaction, an injected fault,
// or the live controller's stall watchdog.
type Aborter interface {
	Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time)
}

// AbortTxn aborts t on s: schedulers implementing Aborter run their
// recovery path; for the rest (NODC, plain lock-droppers) Commit doubles
// as the release path, which is exactly what their abort must do.
func AbortTxn(s Scheduler, t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	if a, ok := s.(Aborter); ok {
		return a.Abort(t, now)
	}
	return s.Commit(t, now)
}

// abort is wtpgBase's recovery path: release locks and declarations,
// splice the WTPG past the dead transaction (see wtpg.Splice), and drop
// it from the live registry. Schedulers layer their cache invalidation
// on top.
func (b *wtpgBase) abort(t *txn.T) []txn.PartitionID {
	freed := b.locks.Release(t.ID)
	b.graph.Splice(t.ID)
	delete(b.live, t.ID)
	return freed
}

// Degradable is implemented by schedulers that can fall back to a
// degraded-but-safe mode when their structural invariant breaks (CHAIN's
// chain form). The observability wrapper polls it to emit degrade /
// restore events on transitions.
type Degradable interface {
	Degraded() bool
}

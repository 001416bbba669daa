package sched

import (
	"batsched/internal/event"
	"batsched/internal/txn"
)

// AbortTxn is s.Abort(t, now). Its one caller is the benchmark's timing
// decorator (benchmark/traced.go); everything else calls
// Scheduler.Abort directly.
func AbortTxn(s Scheduler, t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return s.Abort(t, now)
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

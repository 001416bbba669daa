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
	b.leave(t.ID)
	return freed
}

// Degradable has no implementer: CHAIN runs in one mode, and chain form
// holds by construction (docs/ROBUSTNESS.md §3). It stays declared only
// because benchmark/traced.go asserts it and benchmark/ is frozen by
// BENCHMARK.json; it leaves in the next benchmark change.
type Degradable interface {
	Degraded() bool
}

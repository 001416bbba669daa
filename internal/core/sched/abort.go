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
// on top. The splice asks the survivors' declarations whether a pair it
// would re-resolve conflicts, since a family that is not eager holds no
// edge for an unresolved pair.
func (b *wtpgBase) abort(t *txn.T) []txn.PartitionID {
	freed := b.locks.Release(t.ID)
	b.graph.Splice(t.ID, b.declared)
	b.leave(t.ID)
	return freed
}

// declared returns live transaction id's declaration.
func (b *wtpgBase) declared(id txn.ID) *txn.T {
	r, _ := b.live.Get(id)
	return r.t
}

// Degradable has no implementer: CHAIN runs in one mode, and chain form
// holds by construction (docs/ROBUSTNESS.md §3). It stays declared only
// because benchmark/traced.go asserts it and benchmark/ is frozen by
// BENCHMARK.json; it leaves in the next benchmark change.
type Degradable interface {
	Degraded() bool
}

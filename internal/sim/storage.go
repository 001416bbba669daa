package sim

// Real page I/O under the deterministic simulator: with WithStorage
// attached, every processed quantum reads one heap page of the step's
// partition through the buffer pool, committed write steps insert their
// deterministic effect tuple (internal/storage's effect model), and the
// touched partitions' dirty pages are written back at commit, right after
// the force. Logging, applying and forcing are internal/durable's; this
// file is the simulator's I/O model and the moments it calls the binding.
//
// The storage engine is driven *by* the simulated timeline but feeds
// nothing back into it: page reads and writes happen as side effects at
// event boundaries and never schedule events or alter durations, so the
// simulation's Result stays a pure function of (Config, Seed) whether
// storage is attached or not — the byte-identity the differential
// battery (TestStorageDifferentialCommitSet) asserts.

import (
	"batsched/internal/durable"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// WithStorage attaches a caller-owned heap-file store: quanta read real
// pages, commits apply real effect tuples and flush them. The caller
// keeps the store's lifecycle (Close for a graceful shutdown, Crash for
// the chaos batteries); the store must have been opened with at least
// the machine's partition count. A nil store is ignored.
func WithStorage(st *storage.Store) Option {
	return func(rc *runOpts) { rc.store = st }
}

// durableBind binds the run's log and store to the write-ahead contract.
// Events carry no wall time (a trace is a pure function of (Config,
// Seed)), and the clock is the event queue's: the store starts no
// goroutine, so it only stamps events and forces the log from inside the
// sim loop's own storage calls.
func (s *simulator) durableBind(log *wal.Log) {
	s.dur = durable.New(log, s.store,
		func(e obs.Event) { e.DurNS = 0; s.emitObs(e) },
		s.q.Now)
	s.dur.Observe(s.obs, s.obsLabel)
}

// storeTouch turns one processed quantum into one real page read of the
// step's partition, walking the partition's pages round-robin via the
// transaction's cursor.
func (s *simulator) storeTouch(st *txnState, step int) {
	if s.store == nil || s.dur.StoreErr() != nil {
		return
	}
	if step < 0 || step >= len(st.t.Steps) {
		return
	}
	part := st.t.Steps[step].Part
	if int(part) >= s.store.NumPartitions() {
		return
	}
	s.dur.FailStore(s.store.TouchPage(part, st.pageCursor))
	st.pageCursor++
}

// storeStageStep stages the step's effect tuple if it is a write step —
// applied only if the transaction commits (no-steal).
func (s *simulator) storeStageStep(st *txnState, step int) {
	if s.store == nil || s.dur.StoreErr() != nil {
		return
	}
	if step < 0 || step >= len(st.t.Steps) {
		return
	}
	sp := st.t.Steps[step]
	if sp.Mode != txn.Write || int(sp.Part) >= s.store.NumPartitions() {
		return
	}
	s.store.Stage(st.t.ID, step, sp.Part)
}

// durableCommit is the simulator's synchronous commit: pre-commit and
// force in the same simulated instant, so the run counts a transaction
// only once it is durable and the recovered committed set equals
// Result.Completed's population exactly — the chaos battery's
// replay-equivalence invariant. A refusal or failed force is latched in
// the binding and reported by Run. The written partitions' dirty pages
// then leave the pool at once, which is what the kill batteries tear.
func (s *simulator) durableCommit(st *txnState, now event.Time) {
	if s.dur == nil {
		return
	}
	node := 0
	if len(st.t.Steps) > 0 {
		node = s.cfg.Machine.NodeOf(st.t.Steps[0].Part)
	}
	_ = s.dur.PreCommit(st.t, node, st.walPreds, now)
	_ = s.dur.Force(now)
	if s.store == nil || s.dur.StoreErr() != nil {
		return
	}
	for _, sp := range st.t.Steps {
		if sp.Mode == txn.Write && int(sp.Part) < s.store.NumPartitions() {
			s.dur.FailStore(s.store.FlushPartition(sp.Part))
		}
	}
}

// durableFinish abandons the effects staged by transactions still live
// at the horizon and unbinds the observer (the store may outlive the run).
func (s *simulator) durableFinish() {
	for id := range s.live {
		s.dur.Abandon(id)
	}
	s.dur.Observe(nil, "")
}

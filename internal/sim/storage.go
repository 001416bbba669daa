package sim

// Real page I/O under the deterministic simulator: with WithStorage
// attached, every processed quantum reads one heap page of the step's
// partition through the buffer pool, committed write steps insert their
// deterministic effect tuple (internal/storage's effect model), and the
// touched partitions' dirty pages flush at commit strictly after the
// WAL force when WithWAL is also attached — the write-ahead contract
// extended to pages.
//
// The storage engine is driven *by* the simulated timeline but feeds
// nothing back into it: page reads and writes happen as side effects at
// event boundaries and never schedule events or alter durations, so the
// simulation's Result stays a pure function of (Config, Seed) whether
// storage is attached or not — the byte-identity the differential
// battery (TestStorageDifferentialCommitSet) asserts.

import (
	"batsched/internal/event"
	"batsched/internal/storage"
	"batsched/internal/txn"
)

// WithStorage attaches a caller-owned heap-file store: quanta read real
// pages, commits apply real effect tuples and flush them. The caller
// keeps the store's lifecycle (Close for a graceful shutdown, Crash for
// the chaos batteries); the store must have been opened with at least
// the machine's partition count. A nil store is ignored.
func WithStorage(st *storage.Store) Option {
	return func(rc *runOpts) { rc.store = st }
}

// storeFail latches the first storage error; Run reports it after the
// timeline drains, mirroring walFail.
func (s *simulator) storeFail(err error) {
	if err != nil && s.storeErr == nil {
		s.storeErr = err
	}
}

// storeBind points the store's trace events at this run's observer and
// simulated clock. The clock reads the storeNow shadow, not q.Now()
// directly: the store's background flusher stamps events from its own
// goroutine, and the queue's now-field is owned by the sim loop. Each
// storage touchpoint refreshes the shadow, so background events carry
// the timeline position of the last storage activity.
func (s *simulator) storeBind() {
	if s.store == nil {
		return
	}
	s.storeNow.Store(int64(s.q.Now()))
	s.store.Bind(s.obs, s.obsLabel, func() event.Time { return event.Time(s.storeNow.Load()) })
}

// storeTouch turns one processed quantum into one real page read of the
// step's partition, walking the partition's pages round-robin via the
// transaction's cursor.
func (s *simulator) storeTouch(st *txnState, step int, now event.Time) {
	if s.store == nil || s.storeErr != nil {
		return
	}
	if step < 0 || step >= len(st.t.Steps) {
		return
	}
	part := st.t.Steps[step].Part
	if int(part) >= s.store.NumPartitions() {
		return
	}
	s.storeNow.Store(int64(now))
	s.storeFail(s.store.TouchPage(part, st.pageCursor))
	st.pageCursor++
}

// storeStageStep stages the step's effect tuple if it is a write step —
// applied only if the transaction commits (no-steal).
func (s *simulator) storeStageStep(st *txnState, step int) {
	if s.store == nil || s.storeErr != nil {
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

// storeCommit applies the transaction's staged effects and flushes the
// touched partitions. Called from handleCommit strictly after
// walCommit's Sync: the commit record is durable before any page
// carrying the effects can reach disk.
func (s *simulator) storeCommit(st *txnState) {
	if s.store == nil || s.storeErr != nil {
		return
	}
	s.storeNow.Store(int64(s.q.Now()))
	s.storeFail(s.store.ApplyCommit(st.t.ID))
}

// storeAbort drops the transaction's staged effects — nothing was ever
// written, so there is nothing to undo.
func (s *simulator) storeAbort(st *txnState) {
	if s.store == nil {
		return
	}
	s.store.Drop(st.t.ID)
}

// storeFinish drops effects staged by transactions still live at the
// horizon and unbinds the observer (the store may outlive the run).
func (s *simulator) storeFinish() {
	if s.store == nil {
		return
	}
	for id := range s.live {
		s.store.Drop(id)
	}
	s.store.Bind(nil, "", nil)
}

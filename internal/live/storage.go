package live

// Real page I/O under the live controller: with WithStorage attached,
// every granted step drives a real partition iterator through the
// buffer pool (a full scan of the step's partition — the bulk access
// the paper's transactions model), write steps stage their
// deterministic effect tuple, and commit applies the staged effects to
// cached pages AFTER appending the WAL commit record and BEFORE the
// partition locks drop (finish). The record is forced only after that,
// so cached pages run ahead of the durable log for a moment; the
// write-ahead contract for pages is enforced where pages reach disk —
// storeBind hands the store a write barrier that forces the log before
// any page image is written.
//
// Failure discipline: once finish has appended the commit record, the
// outcome is the log's. A storage failure after that point cannot flip
// it (recovery redoes the effects from the WAL if the record proves
// durable), so it latches a sticky error instead — as does a failed
// force behind applied effects: later Runs fail fast and a restart's
// WAL replay repairs the heap. Abort drops the staged effects; nothing
// was written, so there is nothing to undo (no-steal at transaction
// granularity).

import (
	"fmt"

	"batsched/internal/event"
	"batsched/internal/storage"
	"batsched/internal/txn"
)

// WithStorage attaches a caller-owned heap-file store to the
// controller: granted steps do real page reads, commits apply real
// effect tuples. The caller keeps the store's lifecycle (Close/Crash);
// it must have been opened with at least as many partitions as the
// transactions touch. A nil store is ignored.
func WithStorage(st *storage.Store) Option {
	return func(c *Controller) { c.store = st }
}

// storeBind points the store's page-traffic events at the controller's
// observer and wall clock and, with a WAL, makes "force the log through
// everything appended so far" the store's write barrier: a commit's
// record is appended before its effects are applied, so no page image
// can reach disk ahead of the record that makes it redoable, whichever
// path writes it. Called from New after the label is known.
func (c *Controller) storeBind() {
	if c.store == nil {
		return
	}
	c.store.Bind(c.observer, c.label, func() event.Time { return c.now() })
	if c.wal != nil {
		c.store.SetWriteBarrier(c.walSync)
	}
}

// StorageErr returns the sticky storage error, if any: a failure to
// apply or flush a logged commit's effects, or a failed force behind
// applied ones. The outcome is the log's (restart replay repairs the
// heap), but the controller refuses further storage-backed work.
func (c *Controller) StorageErr() error {
	if c.store == nil {
		return nil
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	return c.storeErr
}

func (c *Controller) storeFail(err error) {
	if err == nil {
		return
	}
	c.storeMu.Lock()
	if c.storeErr == nil {
		c.storeErr = err
	}
	c.storeMu.Unlock()
}

// storeStep is the granted step's real work: scan the step's partition
// through the buffer pool (every page of it — a bulk access), and for a
// write step stage the effect tuple that commit will apply. Runs inside
// runAdmitted while the step's lock is held, so the scan is isolated by
// the scheduler's strict 2PL exactly like the modelled I/O.
func (c *Controller) storeStep(t *txn.T, step int) error {
	if c.store == nil {
		return nil
	}
	if err := c.StorageErr(); err != nil {
		return fmt.Errorf("live: %v step %d: storage unavailable: %w", t.ID, step, err)
	}
	s := t.Steps[step]
	if int(s.Part) >= c.store.NumPartitions() {
		return nil
	}
	if _, err := c.store.ScanCount(s.Part); err != nil {
		return fmt.Errorf("live: %v step %d: %w", t.ID, step, err)
	}
	if s.Mode == txn.Write {
		c.store.Stage(t.ID, step, s.Part)
	}
	return nil
}

// storeApplyCommit applies t's staged effects. Called from finish after
// the commit record is appended and BEFORE the scheduler locks drop —
// the transaction still excludes every reader and writer of its
// partitions while its pages mutate. A failure here latches the sticky
// error but does not flip the logged outcome (see the package comment).
func (c *Controller) storeApplyCommit(t *txn.T) {
	if c.store == nil {
		return
	}
	if err := c.store.ApplyCommit(t.ID); err != nil {
		c.storeFail(fmt.Errorf("live: %v: applying committed effects: %w", t.ID, err))
	}
}

// storeDrop discards t's staged effects on any non-commit outcome.
func (c *Controller) storeDrop(t *txn.T) {
	if c.store == nil {
		return
	}
	c.store.Drop(t.ID)
}

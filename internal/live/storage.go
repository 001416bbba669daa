package live

// Real page I/O under the live controller: with WithStorage attached,
// every granted step runs Store.ScanCount through the buffer pool (a
// full scan of the step's partition — the bulk access the paper's
// transactions model), and a commit applies its footprint's
// write effects. Applying them, the write barrier and the sticky storage
// error belong to the write-ahead contract of wal.go; finish (live.go)
// says when.

import (
	"fmt"

	"batsched/internal/storage"
	"batsched/internal/txn"
)

// WithStorage attaches a caller-owned heap-file store to the
// controller: granted steps do real page reads, commits apply real
// effect tuples. The caller keeps the store's lifecycle (Close/Crash);
// Admit refuses a transaction with a step on a partition the store
// lacks. A nil store is ignored.
func WithStorage(st *storage.Store) Option {
	return func(c *Controller) { c.store = st }
}

// StorageErr returns the sticky storage error, if any: the outcome of
// every logged commit is the log's, but the controller refuses further
// storage-backed work.
func (c *Controller) StorageErr() error { return load(&c.storeErr) }

// checkParts refuses t when a store is attached and one of t's steps
// names a partition outside it.
func (c *Controller) checkParts(t *txn.T) error {
	if c.store == nil {
		return nil
	}
	n := c.store.NumPartitions()
	for i, s := range t.Steps {
		if int(s.Part) < 0 || int(s.Part) >= n {
			return fmt.Errorf("live: %v step %d: partition %v outside the store's [0,%d)", t.ID, i, s.Part, n)
		}
	}
	return nil
}

// storeStep is the granted step's real work: scan the step's partition
// through the buffer pool (every page of it — a bulk access). Runs inside
// Run while the step's lock is held, so the scan is isolated by
// the scheduler's strict 2PL exactly like the modelled I/O.
func (c *Controller) storeStep(t *txn.T, step int) error {
	if c.store == nil {
		return nil
	}
	if err := c.StorageErr(); err != nil {
		return fmt.Errorf("live: %v step %d: storage unavailable: %w", t.ID, step, err)
	}
	if _, err := c.store.ScanCount(t.Steps[step].Part); err != nil {
		return fmt.Errorf("live: %v step %d: %w", t.ID, step, err)
	}
	return nil
}

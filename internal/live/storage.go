package live

// Real page I/O under the live controller: with WithStorage attached,
// every granted step drives a real partition iterator through the
// buffer pool (a full scan of the step's partition — the bulk access
// the paper's transactions model) and write steps stage their
// deterministic effect tuple. Applying or dropping the staged effects,
// the write barrier and the sticky storage error belong to
// internal/durable; finish (live.go) says when.

import (
	"fmt"

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

// StorageErr returns the sticky storage error, if any
// (durable.Binding.StoreErr): the outcome of every logged commit is the
// log's, but the controller refuses further storage-backed work.
func (c *Controller) StorageErr() error { return c.dur.StoreErr() }

// storeStep is the granted step's real work: scan the step's partition
// through the buffer pool (every page of it — a bulk access), and for a
// write step stage the effect tuple that commit will apply. Runs inside
// Run while the step's lock is held, so the scan is isolated by
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

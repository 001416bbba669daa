package live

// This file attaches the per-node dependency log (internal/wal) to the
// live controller: the options, the predecessor read that feeds the
// Commit records, and restart. What a record means and when it is
// forced is internal/durable's contract; when the controller calls it
// is admitGranted and finish (live.go).

import (
	"errors"
	"fmt"

	"batsched/internal/core/sched"
	"batsched/internal/durable"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// WithWALLog enables durable dependency logging into an open,
// caller-owned log. A commit's record goes to the node file of its first
// partition under the paper's home policy over the files the caller
// opened (walNode), so wal.Open's node count is the one layout choice.
// The caller keeps Close/Crash authority, which is what the
// kill-and-restart chaos battery needs to simulate SIGKILL
// (wal.Log.Crash) underneath the controller.
func WithWALLog(l *wal.Log) Option {
	return func(c *Controller) { c.wal = l }
}

// walNode is the node file t's Commit record goes to: its first
// partition mod the log's node count (node = partition mod nodes, the
// paper's home policy). A pure function of t and the log, so finish
// computes it outside c.mu.
func (c *Controller) walNode(t *txn.T) int {
	if c.wal == nil || len(t.Steps) == 0 {
		return 0
	}
	return int(t.Steps[0].Part) % c.wal.Nodes()
}

// WALStats returns a snapshot of the attached log's counters; ok is
// false when the controller has no WAL.
func (c *Controller) WALStats() (wal.Stats, bool) {
	if c.wal == nil {
		return wal.Stats{}, false
	}
	return c.wal.Stats(), true
}

// Recover rebuilds a controller from the per-node logs under dir:
// durable.Recover restarts the log — and redoes the WithStorage store,
// if one is given, in the same replay — and the returned controller,
// fresh scheduler state with the reopened log attached and owned, passes
// its scheduler invariant checks before serving new traffic. The log is
// reopened over every node file dir holds, so new commits route over the
// same node count the crashed run logged to, and the controller's Admit
// refuses every id at or below the log's highest committed one
// (Recovery.MaxID): a second Commit record for an id makes the log
// unrecoverable.
//
// The Recovery report carries what was reconstructed: the committed
// set in replay order and the replay schedule's width (MaxParallel).
// Transactions in flight at the crash left no record and need nothing.
// opts are applied as in New, except that WithWALLog is an error: the
// log is dir's.
func Recover(dir string, factory sched.Factory, costs sched.Costs, opts ...Option) (*Controller, *wal.Recovery, error) {
	var cfg Controller
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.wal != nil {
		return nil, nil, errors.New("live: recover: WithWALLog given, but Recover reopens the log under dir itself")
	}
	log, _, rec, err := durable.Recover(dir, 1, cfg.store) // reopens every node file it finds
	if err != nil {
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	c := New(factory, costs, append(opts[:len(opts):len(opts)], WithWALLog(log))...)
	c.walOwned = true
	c.recovered, c.maxRecovered = len(rec.Committed) > 0, rec.MaxID
	if err := c.CheckInvariants(); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	c.emit(obs.Event{
		Kind:     obs.KindRecover,
		At:       c.now(),
		Batch:    len(rec.Committed),
		Clusters: rec.MaxParallel,
		DurNS:    rec.Elapsed.Nanoseconds(),
	})
	return c, rec, nil
}

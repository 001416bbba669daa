package live

// This file attaches the per-node dependency log (internal/wal) to the
// live controller: the options, the predecessor read that feeds the
// Commit records, and restart. What a record means and when it is
// forced is internal/durable's contract; when the controller calls it
// is admitGranted and finish (live.go).

import (
	"errors"
	"fmt"
	"math/bits"

	"batsched/internal/core/sched"
	"batsched/internal/durable"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// WithWALLog enables durable dependency logging into an open,
// caller-owned log — one append-only file per data node (wal.Open with
// the WithTopology node count, 1 without). The caller keeps Close/Crash
// authority, which is what the kill-and-restart chaos battery needs to
// simulate SIGKILL (wal.Log.Crash) underneath the controller.
func WithWALLog(l *wal.Log) Option {
	return func(c *Controller) { c.wal = l }
}

// WALStats returns a snapshot of the attached log's counters; ok is
// false when the controller has no WAL.
func (c *Controller) WALStats() (wal.Stats, bool) {
	if c.wal == nil {
		return wal.Stats{}, false
	}
	return c.wal.Stats(), true
}

// predecessorsLocked reads id's resolved WTPG predecessors — for a
// spanning transaction, the union across its shards. Callers must hold
// every masked shard's lock.
func (c *Controller) predecessorsLocked(mask uint64, id txn.ID) []txn.ID {
	if !spanning(mask) {
		return sched.Predecessors(c.shards[homeShard(mask)].sch, id)
	}
	schs := make([]sched.Scheduler, 0, bits.OnesCount64(mask))
	c.eachShard(mask, func(sh *lshard) { schs = append(schs, sh.sch) })
	return sched.PredecessorsUnion(schs, id)
}

// Recover rebuilds a controller from the per-node logs under dir:
// durable.Recover restarts the log — and redoes the WithStorage store,
// if one is given, in the same replay — and the returned controller,
// fresh scheduler state with the reopened log attached and owned, passes
// its scheduler invariant checks before serving new traffic.
//
// The Recovery report carries what was reconstructed: the committed
// set in replay order and the replay schedule's width (MaxParallel).
// Transactions in flight at the crash left no record and need nothing. opts are applied as in New,
// except that WithWALLog is an error: the log is dir's.
func Recover(dir string, factory sched.Factory, costs sched.Costs, opts ...Option) (*Controller, *wal.Recovery, error) {
	var cfg Controller
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.wal != nil {
		return nil, nil, errors.New("live: recover: WithWALLog given, but Recover reopens the log under dir itself")
	}
	log, _, rec, err := durable.Recover(dir, max(cfg.topo.NumNodes, 1), cfg.store)
	if err != nil {
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	c := New(factory, costs, append(opts[:len(opts):len(opts)], WithWALLog(log))...)
	c.walOwned = true
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

package live

// This file wires the per-node dependency log (internal/wal) through
// the live controller. The write-ahead contract:
//
//   - admission: the Begin record — footprint plus the WTPG predecessor
//     set resolved at admission — is appended under the shard locks and
//     never forced on its own. It rides the pass that forces its
//     completion record, in the same file, so a durable Commit implies a
//     durable Begin; an unfinished transaction may leave no trace, which
//     no-steal storage makes harmless;
//   - commit: the Commit record, carrying the final resolved
//     predecessor set (read before the scheduler drops the transaction
//     from the graph), is appended BEFORE the scheduler applies the
//     commit — i.e. before the partition locks drop — and forced AFTER;
//     Commit reports success only once that force returns (pre-commit,
//     see finish);
//   - abort: the Abort record is appended but not forced — a lost abort
//     record re-aborts at recovery anyway (no completion ⇒ re-abort),
//     so aborts never pay an fsync;
//   - pages: the store calls walSync (its write barrier, storeBind)
//     before any page image leaves the buffer pool, so the log is
//     durable through every effect a written page carries.
//
// Because every append precedes the appender's lock release, the log's
// append order extends the conflict order, and recovery keeps the
// gap-free prefix of it (wal.Scan): everything acknowledged, and no
// successor of anything lost.
//
// Sync points group-commit: concurrent committers piggyback on one
// fsync pass (wal.Log.Sync), and the controller emits KindWALAppend /
// KindWALSync / KindRecover events so the obs pipeline sees appends,
// fsync batching, and recovery behavior.

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// WithWAL enables durable dependency logging under dir: one append-only
// log per data node (one log total without WithTopology). The logs are
// opened by New — an open failure is sticky and surfaces as an error
// from the first Admit, never as silently-dropped durability — and
// closed (flushed + fsynced) by Close.
func WithWAL(dir string) Option {
	return func(c *Controller) { c.walDir = dir }
}

// WithWALLog attaches an already-open, caller-owned log instead of
// having the controller open one: the caller keeps Close/Crash
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

// walFail records the first WAL error; once set, durability is broken
// and every subsequent admission fails rather than running unlogged.
// walErr has its own mutex (walMu) because failures surface from fsync
// paths running outside any shard lock; walBroken reads it from inside
// shard critical sections (lock order: shard locks before walMu).
func (c *Controller) walFail(err error) {
	c.walMu.Lock()
	if c.walErr == nil {
		c.walErr = err
	}
	c.walMu.Unlock()
}

// walBroken returns the sticky WAL error, if any.
func (c *Controller) walBroken() error {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.walErr
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

// walBeginLocked appends the Begin record for a just-admitted t: its
// declared footprint and the predecessor set resolved at admission,
// routed to the node of its first partition — which t's control record r
// remembers for the completion record. Callers must hold the locks of
// every shard in mask, t's footprint, so the predecessor read is atomic
// with the admission. Without a usable WAL it does nothing.
func (c *Controller) walBeginLocked(r *ltxn, t *txn.T, now event.Time, mask uint64) error {
	if c.wal == nil || c.walBroken() != nil {
		return nil
	}
	if len(t.Steps) > 0 {
		r.walNode = c.place.NodeOf(t.Steps[0].Part)
	}
	err := c.walAppend(wal.Record{
		Kind:  wal.Begin,
		Txn:   t.ID,
		Node:  r.walNode,
		At:    now,
		Steps: wal.Footprint(t),
		Preds: c.predecessorsLocked(mask, t.ID),
	})
	r.walBegun = err == nil
	return err
}

// walCompletionLocked builds the completion record for a finishing t,
// reading the final predecessor set while the transaction is still in
// the graph(s). A transaction whose Begin was never logged (WAL failed
// mid-run) gets no completion record either — replay would reject a
// completion without a begin. Callers must hold the footprint's shard
// locks.
func (c *Controller) walCompletionLocked(r *ltxn, t *txn.T, committed bool, now event.Time, mask uint64) (wal.Record, bool) {
	if c.wal == nil || !r.walBegun || c.walBroken() != nil {
		return wal.Record{}, false
	}
	rec := wal.Record{Kind: wal.Abort, Txn: t.ID, Node: r.walNode, At: now}
	if committed {
		rec.Kind = wal.Commit
		rec.Preds = c.predecessorsLocked(mask, t.ID)
	}
	return rec, true
}

// walAppend appends rec without forcing it, latching a refusal as the
// sticky WAL error.
func (c *Controller) walAppend(rec wal.Record) error {
	if err := c.wal.Append(rec); err != nil {
		c.walFail(err)
		return err
	}
	c.emit(obs.Event{Kind: obs.KindWALAppend, At: rec.At, Txn: rec.Txn, Op: rec.Kind.String(), Node: rec.Node})
	return nil
}

// walSync forces everything appended so far in one group-commit pass
// (or finds another caller's pass already covered it). Called WITHOUT a
// shard lock held — the fsync must not stall the controller's critical
// sections.
func (c *Controller) walSync() error {
	start := time.Now()
	n, err := c.wal.Sync()
	if err != nil {
		c.walFail(err)
		return err
	}
	if n > 0 {
		c.emit(obs.Event{Kind: obs.KindWALSync, At: c.now(), Batch: n, DurNS: time.Since(start).Nanoseconds()})
	}
	return nil
}

// Recover rebuilds a controller from the per-node logs under dir: the
// logs are scanned in parallel (torn tails and everything beyond the
// first hole in the append order dropped — wal.Scan's gap-free prefix,
// which reopening the log then makes physical), the committed history is
// replayed topologically
// ordered only by the logged predecessor edges (wave-parallel — see
// wal.Replay), transactions with a Begin but no completion record are
// re-aborted (their locks died with the process; the abort records are
// appended and forced so a second recovery agrees with this one), and
// the returned controller — fresh scheduler state, WAL reattached —
// passes its scheduler invariant checks before serving new traffic.
//
// The Recovery report carries what was reconstructed: the committed
// set in replay order, the re-aborted in-flight transactions, and the
// replay schedule's width (MaxParallel). opts are applied as in New;
// do not pass WithWAL/WithWALLog (Recover manages the log itself).
func Recover(dir string, factory sched.Factory, costs sched.Costs, opts ...Option) (*Controller, *wal.Recovery, error) {
	scans, err := wal.Scan(dir)
	if err != nil {
		return nil, nil, err
	}
	rec, err := wal.Replay(scans, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, nil, err
	}
	c := New(factory, costs, append(append([]Option(nil), opts...), WithWAL(dir))...)
	if c.walErr != nil {
		err := c.walErr
		c.Close()
		return nil, nil, err
	}
	now := c.now()
	for _, b := range rec.Incomplete {
		if err := c.walAppend(wal.Record{Kind: wal.Abort, Txn: b.Txn, Node: b.Node, At: now}); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("live: recover: %w", err)
		}
	}
	if err := c.walSync(); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	if err := c.CheckInvariants(); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	c.emit(obs.Event{
		Kind:     obs.KindRecover,
		At:       now,
		Batch:    len(rec.Committed),
		Clusters: rec.MaxParallel,
		Objects:  float64(len(rec.Incomplete)),
		DurNS:    rec.Elapsed.Nanoseconds(),
	})
	return c, rec, nil
}

package live

// This file attaches the per-node dependency log (internal/wal) and
// states the write-ahead contract between the controller, the log and
// the heap-file store (internal/storage); it is implemented here and
// nowhere else. The controller decides *when* a transaction pre-commits
// and is forced (admitGranted and finish, live.go); what each of those
// means is stated here. The simulator (internal/sim) is a cost model and
// writes no file. A committed transaction leaves exactly one record; an
// aborted or unfinished one leaves none, which no-steal storage makes
// harmless — nothing of it ever reached a page, and an abort, a kill or
// a run's end has nothing to drop.
//
//   - preCommitLocked: the Commit record — footprint plus the union of the
//     WTPG predecessors resolved at admission and at commit — goes to the
//     node file of the transaction's first partition, as the controller
//     resolved it under its own locks, BEFORE the footprint's write
//     effects touch a cached page and before the controller releases the
//     transaction's partition locks. A record the log refuses, or a log
//     that is attached but broken, turns the commit into an abort while
//     nothing of it is visible. Once the record is appended the outcome is
//     the log's: a storage failure behind it latches a sticky error but
//     cannot flip it — a restart redoes the effects from the log.
//   - force: one group-commit pass (wal.Log.Sync) makes everything
//     appended so far durable; a commit is acknowledged only after the
//     force that follows its preCommitLocked returns. Because every append
//     precedes the appender's lock release, the log's append order extends
//     the conflict order: acknowledged ⊆ durable, and an acknowledged
//     transaction's predecessors are durable. force is also the store's
//     write barrier — no page image leaves the buffer pool before the log
//     is durable through every effect it may carry, whichever path writes
//     it. A failed force leaves cached pages ahead of the log, so it
//     latches both sticky errors: every later admission, commit and page
//     write fails until a restart.
//   - Recover: scan the node files, keep the gap-free prefix of the append
//     order (wal.Scan — everything acknowledged, and no successor of
//     anything lost), replay it once with Store.Redo as the apply
//     callback, flush, and reopen the log at the cut (wal.Open makes the
//     cut durable). Nothing is appended, so a second recovery agrees with
//     the first.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
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

// latch keeps the first non-nil err. The copy keeps a nil err — the hot
// path — off the heap.
func latch(p *atomic.Pointer[error], err error) {
	if err != nil {
		first := err
		p.CompareAndSwap(nil, &first)
	}
}

func load(p *atomic.Pointer[error]) error {
	if e := p.Load(); e != nil {
		return *e
	}
	return nil
}

// logs reports whether a log is attached and healthy, i.e. whether
// preCommitLocked will append: admitGranted and finish ask before
// resolving a predecessor set.
func (c *Controller) logs() bool {
	return c.wal != nil && load(&c.logErr) == nil
}

// preCommitLocked appends t's Commit record to walNode's file and then
// applies its footprint's write effects to cached pages. preds is the
// union of the predecessor sets resolved at admission and at commit,
// duplicates allowed. It releases the held c.mu for both, and retakes it
// however it returns, panics included. t must still hold its partition
// locks — scans read frames with no latch — and the caller must not
// acknowledge before the next force returns. A non-nil error means the
// log is broken and the commit became an abort: nothing was logged or
// applied.
func (c *Controller) preCommitLocked(t *txn.T, preds []txn.ID, now event.Time) error {
	c.mu.Unlock()
	defer c.mu.Lock()
	if c.wal != nil {
		if load(&c.logErr) != nil {
			return errors.New("wal unavailable, commit aborted")
		}
		rec := wal.NewCommit(t, c.walNode(t), now, preds)
		if err := c.wal.Append(rec); err != nil {
			latch(&c.logErr, err)
			return fmt.Errorf("commit record not logged: %w", err)
		}
		c.emit(obs.Event{Kind: obs.KindWALAppend, At: now, Txn: t.ID, Op: rec.Kind.String(), Node: rec.Node})
	}
	if c.store != nil {
		if err := c.store.ApplyCommit(t); err != nil {
			latch(&c.storeErr, fmt.Errorf("%v: applying committed effects: %w", t.ID, err))
		}
	}
	return nil
}

// force makes every record appended so far durable, in its own pass or
// by finding another caller's pass covered it. It takes no controller
// lock — it is the store's write barrier too — unless its observer
// panics (emitSync), and must be called without holding one a
// committer needs.
func (c *Controller) force(now event.Time) error {
	if c.wal == nil {
		return nil
	}
	var start time.Time // only the trace reads the force's duration
	if c.observer != nil {
		start = time.Now()
	}
	n, err := c.wal.Sync()
	if err != nil {
		latch(&c.logErr, err)
		if c.store != nil {
			latch(&c.storeErr, fmt.Errorf("applied effects not durable: %w", err))
		}
		return err
	}
	if n > 0 && c.observer != nil {
		c.emitSync(obs.Event{Kind: obs.KindWALSync, At: now, Batch: n, DurNS: time.Since(start).Nanoseconds()})
	}
	return nil
}

// emitSync emits force's event. force runs outside c.mu, where exit
// cannot catch a panicking observer, and the records it forced are
// durable already: the panic must neither escape Commit, which would
// turn a durable commit into a reported failure, nor the store's write
// barrier. So emitSync recovers it and breaks the controller as exit
// does — latches it into schedErr, naming it, and wakes everything
// parked — and force goes on. It takes c.mu only then; no caller of
// force holds it, and nothing that holds it waits on the log or the
// store.
func (c *Controller) emitSync(e obs.Event) {
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			latch(&c.schedErr, fmt.Errorf("live: force panicked: %v", r))
			c.broadcastLocked()
			c.mu.Unlock()
		}
	}()
	c.emit(e)
}

// Recover rebuilds a controller from the per-node logs under dir: it
// restarts the log — and redoes the WithStorage store, if one is given,
// in the same replay (see the file comment for the sequence) — and the
// returned controller, fresh scheduler state with the reopened log
// attached and owned, passes its scheduler invariant checks before
// serving new traffic. The log is reopened over every node file dir
// holds, so new commits route over the same node count the crashed run
// logged to, and the controller's Admit refuses every id at or below the
// highest one the log names (Recovery.MaxID): a second Commit record for
// an id makes the log unrecoverable, and a logged predecessor's id must
// not name a new transaction.
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
	scans, err := wal.Scan(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("live: recover: %w", err)
	}
	var apply func(wal.Record, int)
	var redoErr atomic.Pointer[error]
	if cfg.store != nil {
		apply = func(commit wal.Record, _ int) { latch(&redoErr, cfg.store.Redo(commit)) }
	}
	rec, err := wal.Replay(scans, runtime.GOMAXPROCS(0), apply)
	if err == nil {
		err = load(&redoErr)
	}
	if err == nil && cfg.store != nil {
		err = cfg.store.Flush()
	}
	var log *wal.Log
	if err == nil {
		log, err = wal.Open(dir, 1) // reopens every node file it finds
	}
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

// Package durable is the one implementation of the write-ahead contract
// between the live controller (internal/live), the per-node dependency
// log (internal/wal) and the heap-file store (internal/storage). The
// controller decides *when* a transaction pre-commits, is abandoned and
// is forced; what each of those means is stated here and nowhere else.
// The simulator (internal/sim) is a cost model and writes no file. A
// committed transaction leaves exactly one record; an aborted or
// unfinished one leaves none, which no-steal storage makes harmless —
// nothing of it ever reached a page.
//
//   - PreCommit: the Commit record — footprint plus the union of the
//     WTPG predecessors resolved at admission and at commit — goes to the
//     node file of the transaction's first partition, as the controller
//     resolved it under its own locks, BEFORE the staged effects touch a
//     cached page and before the controller releases the transaction's
//     partition locks. A record the log refuses, or a log
//     that is attached but broken, turns the commit into an abort while
//     nothing of it is visible. Once the record is appended the outcome is
//     the log's: a storage failure behind it latches a sticky error but
//     cannot flip it — a restart redoes the effects from the log.
//   - Abandon: the staged effects are dropped and nothing is logged;
//     nothing was written, so there is nothing to undo. It is what an
//     abort, a kill and a run's end do to a transaction in flight.
//   - Force: one group-commit pass (wal.Log.Sync) makes everything
//     appended so far durable; a commit is acknowledged only after the
//     Force that follows its PreCommit returns. Because every append
//     precedes the appender's lock release, the log's append order extends
//     the conflict order: acknowledged ⊆ durable, and an acknowledged
//     transaction's predecessors are durable. Force is also the store's
//     write barrier — no page image leaves the buffer pool before the log
//     is durable through every effect it may carry, whichever path writes
//     it. A failed Force leaves cached pages ahead of the log, so it
//     latches both sticky errors: every later admission, commit and page
//     write fails until a restart.
//   - Recover: scan the node files, keep the gap-free prefix of the append
//     order (wal.Scan — everything acknowledged, and no successor of
//     anything lost), replay it once with Store.Redo as the apply
//     callback, flush, and reopen the log at the cut (wal.Open makes the
//     cut durable). Nothing is appended, so a second recovery agrees with
//     the first.
package durable

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// Binding ties a caller-owned log and/or store to one running
// controller. The caller keeps their lifecycle (Close, Crash). Every
// method is safe on a nil Binding — a controller with neither holds nil
// and pays one nil check — and safe for concurrent use.
type Binding struct {
	log   *wal.Log
	store *storage.Store
	emit  func(obs.Event)
	clock func() event.Time

	// The sticky first failures, read lock-free on the hot path.
	logErr   atomic.Pointer[error]
	storeErr atomic.Pointer[error]
}

// New binds log and/or store (either may be nil; nil for both returns a
// nil Binding). emit receives the KindWALAppend / KindWALSync events,
// and clock stamps what the controller's calls do not time themselves: the
// store's page-traffic events and a Force the write barrier triggers.
func New(log *wal.Log, store *storage.Store, emit func(obs.Event), clock func() event.Time) *Binding {
	if log == nil && store == nil {
		return nil
	}
	b := &Binding{log: log, store: store, emit: emit, clock: clock}
	if log != nil && store != nil {
		store.SetWriteBarrier(func() error { return b.Force(clock()) })
	}
	return b
}

// Observe points the store's page-traffic events at o, stamped with
// label and the binding's clock; a nil o unbinds (the store may outlive
// the controller).
func (b *Binding) Observe(o obs.Observer, label string) {
	if b != nil && b.store != nil {
		b.store.Bind(o, label, b.clock)
	}
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

// LogErr returns the sticky log error: the first refused append or
// failed force. Durability is broken; the controller must stop admitting
// rather than run unlogged.
func (b *Binding) LogErr() error {
	if b == nil {
		return nil
	}
	return load(&b.logErr)
}

// StoreErr returns the sticky storage error: a failure to apply a logged
// commit's effects, or a failed force behind applied ones. The outcome
// is the log's (a restart's replay repairs the heap), but storage-backed
// work must stop.
func (b *Binding) StoreErr() error {
	if b == nil {
		return nil
	}
	return load(&b.storeErr)
}

// Logs reports whether a log is attached and healthy, i.e. whether
// PreCommit will append: the controller asks before resolving a
// predecessor set.
func (b *Binding) Logs() bool {
	return b != nil && b.log != nil && load(&b.logErr) == nil
}

// PreCommit appends t's Commit record to node's file and then applies
// its staged effects to cached pages. node is the home of t's first
// partition, which the controller works out from the log's node count.
// preds is the union of the predecessor sets resolved at admission and
// at commit, duplicates allowed: it is sorted and deduplicated in place.
// The caller must still hold the
// transaction's partition locks — scans read frames with no latch — and
// must not acknowledge before the next Force returns. A non-nil error
// means the log is broken and the commit became an abort: nothing was
// logged or applied and the staged effects are gone.
func (b *Binding) PreCommit(t *txn.T, node int, preds []txn.ID, now event.Time) error {
	if b == nil {
		return nil
	}
	if b.log != nil {
		if err := b.logCommit(t, node, preds, now); err != nil {
			b.Abandon(t.ID)
			return err
		}
	}
	if b.store != nil {
		if err := b.store.ApplyCommit(t.ID); err != nil {
			latch(&b.storeErr, fmt.Errorf("%v: applying committed effects: %w", t.ID, err))
		}
	}
	return nil
}

// logCommit appends t's Commit record unforced, latching a refusal.
func (b *Binding) logCommit(t *txn.T, node int, preds []txn.ID, now event.Time) error {
	if load(&b.logErr) != nil {
		return errors.New("wal unavailable, commit aborted")
	}
	slices.Sort(preds)
	rec := wal.Record{Kind: wal.Commit, Txn: t.ID, Node: node, At: now, Steps: wal.Footprint(t), Preds: slices.Compact(preds)}
	if err := b.log.Append(rec); err != nil {
		latch(&b.logErr, err)
		return fmt.Errorf("commit record not logged: %w", err)
	}
	b.emit(obs.Event{Kind: obs.KindWALAppend, At: now, Txn: t.ID, Op: rec.Kind.String(), Node: rec.Node})
	return nil
}

// Abandon drops id's staged effects and logs nothing: what an abort, a
// kill and a run's end do to a transaction in flight.
func (b *Binding) Abandon(id txn.ID) {
	if b != nil && b.store != nil {
		b.store.Drop(id)
	}
}

// Force makes every record appended so far durable, in its own pass or
// by finding another caller's pass covered it. Call it without holding a
// lock a committer needs.
func (b *Binding) Force(now event.Time) error {
	if b == nil || b.log == nil {
		return nil
	}
	start := time.Now()
	n, err := b.log.Sync()
	if err != nil {
		latch(&b.logErr, err)
		if b.store != nil {
			latch(&b.storeErr, fmt.Errorf("applied effects not durable: %w", err))
		}
		return err
	}
	if n > 0 {
		b.emit(obs.Event{Kind: obs.KindWALSync, At: now, Batch: n, DurNS: time.Since(start).Nanoseconds()})
	}
	return nil
}

// Recover restarts from the node files under dir and, when store is
// non-nil, the heap files it was reopened from (see the package comment
// for the sequence). It returns the reopened log, spanning at least
// nodes node files and owned by the caller, the scans the replay was
// computed from (for modelcheck.VerifyRecovery) and the replay's report.
func Recover(dir string, nodes int, store *storage.Store) (*wal.Log, []wal.NodeScan, *wal.Recovery, error) {
	scans, err := wal.Scan(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var apply func(wal.Record, int)
	var redoErr atomic.Pointer[error]
	if store != nil {
		apply = func(commit wal.Record, _ int) { latch(&redoErr, store.Redo(commit)) }
	}
	rec, err := wal.Replay(scans, runtime.GOMAXPROCS(0), apply)
	if err == nil {
		err = load(&redoErr)
	}
	if err == nil && store != nil {
		err = store.Flush()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	log, err := wal.Open(dir, nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	return log, scans, rec, nil
}

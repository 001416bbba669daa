package live

// The write-ahead contract's failure table (wal.go), driven with real
// logs and stores: Log.Close and Log.Crash provoke the errors, no seam is
// added for them. Each case goes through the controller where its API
// reaches the step, and through preCommit and force where a kill must
// land between them.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// rig is one log, one two-partition store and a controller over both.
// Partition 1 is preloaded past the pool's size so touching it evicts;
// partition 0 starts empty, so its heap file has length 0 until a page
// of it is written.
type rig struct {
	wdir, hdir string
	log        *wal.Log
	store      *storage.Store
	ctl        *Controller
	syncs      atomic.Int32 // KindWALSync events seen
}

const rigPages = 32

func rigStoreOpts() []storage.Option {
	return []storage.Option{storage.WithPageSize(512), storage.WithPoolFrames(4)}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{wdir: t.TempDir(), hdir: t.TempDir()}
	var err error
	if r.store, err = storage.Open(r.hdir, 2, rigStoreOpts()...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.store.Close() })
	for last := uint32(0); last < rigPages-1; {
		rid, err := r.store.Insert(1, make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		last = rid.Page
	}
	if err := r.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.log, err = wal.Open(r.wdir, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.log.Close() })
	r.ctl = New(sched.C2PLFactory(), liveCosts, WithWALLog(r.log), WithStorage(r.store),
		WithObserver(observerFunc(func(e obs.Event) {
			if e.Kind == obs.KindWALSync {
				r.syncs.Add(1)
			}
		})))
	t.Cleanup(r.ctl.Close)
	return r
}

func write0(id txn.ID) *txn.T {
	return txn.New(id, []txn.Step{w(0, 1)})
}

// holding admits a one-step writer of partition 0 and acquires its lock:
// the transaction is ready to commit.
func (r *rig) holding(t *testing.T, id txn.ID) *txn.T {
	t.Helper()
	tx := write0(id)
	if err := r.ctl.Admit(context.Background(), tx); err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.Acquire(context.Background(), tx, 0); err != nil {
		t.Fatal(err)
	}
	return tx
}

// preCommit runs the controller's pre-commit step alone, under the mutex
// finish holds when it calls it.
func (r *rig) preCommit(tx *txn.T, preds []txn.ID) error {
	r.ctl.mu.Lock()
	defer r.ctl.mu.Unlock()
	return r.ctl.preCommitLocked(tx, preds, 0)
}

func (r *rig) part0Bytes(t *testing.T) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(r.hdir, "part-0000.heap"))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func (r *rig) part0Keys(t *testing.T) int {
	t.Helper()
	keys, err := r.store.Keys(0)
	if err != nil {
		t.Fatal(err)
	}
	return len(keys)
}

// TestPreCommitRefusedIsAbort: a record the log refuses turns the commit
// into an abort with nothing applied, and latches the refusal — the log
// is attached but broken, so the next commit is refused without an
// append, and so is the next admission.
func TestPreCommitRefusedIsAbort(t *testing.T) {
	r := newRig(t)
	t1 := r.holding(t, 1)
	r.log.Crash(0)
	if err := r.ctl.Commit(t1); err == nil {
		t.Fatal("Commit succeeded although the log refused the record")
	}
	if st := r.ctl.Stats(); st.Committed != 0 || st.Aborted != 1 {
		t.Errorf("%d committed, %d aborted; want the commit counted as an abort", st.Committed, st.Aborted)
	}
	if load(&r.ctl.logErr) == nil || r.ctl.logs() {
		t.Error("the refusal was not latched")
	}
	if err := r.preCommit(write0(2), nil); err == nil {
		t.Error("preCommit succeeded on a broken log")
	}
	if err := r.ctl.Admit(context.Background(), write0(3)); err == nil {
		t.Error("Admit succeeded on a broken log")
	}
	if n := r.part0Keys(t); n != 0 {
		t.Errorf("partition 0 holds %d effects of commits that became aborts", n)
	}
	if err := r.ctl.StorageErr(); err != nil {
		t.Errorf("nothing was applied, yet StorageErr = %v", err)
	}
}

// TestFailedForceLatchesAndBarrierVetoes: a force that fails behind
// applied effects latches both sticky errors, later admissions fail, and
// from then on no page image leaves the pool by any path — partition 0's
// heap file, whose only page exists in the pool alone, stays empty. The
// store starts no goroutine, so nothing can force the log ahead of the
// crash: the scenario runs once and any problem fails it.
func TestFailedForceLatchesAndBarrierVetoes(t *testing.T) {
	r := newRig(t)
	if err := r.preCommit(write0(1), nil); err != nil {
		t.Fatal(err)
	}
	if n := r.part0Keys(t); n != 1 {
		t.Fatalf("pre-committed effect not visible in the pool: %d keys", n)
	}
	r.log.Crash(0)
	if err := r.ctl.force(0); err == nil {
		t.Fatal("force succeeded on a crashed log with records pending")
	}
	if load(&r.ctl.logErr) == nil || r.ctl.StorageErr() == nil {
		t.Fatalf("failed force latched logErr=%v StorageErr=%v, want both", load(&r.ctl.logErr), r.ctl.StorageErr())
	}
	if err := r.ctl.Admit(context.Background(), write0(2)); err == nil {
		t.Error("Admit succeeded after a failed force")
	}
	if err := r.store.Flush(); err == nil {
		t.Error("Flush wrote past a log that cannot be forced")
	}
	// A scan of partition 1, the read the live controller does, runs
	// rigPages pages through the pool: its evictions reach the dirty page.
	if _, err := r.store.ScanCount(1); err == nil {
		t.Error("no eviction reached the dirty page (or it was written back)")
	}
	if err := r.store.Close(); err == nil {
		t.Error("Close wrote past a log that cannot be forced")
	}
	if n := r.part0Bytes(t); n != 0 {
		t.Errorf("%d bytes of partition 0 reached disk ahead of the log", n)
	}
	if n := r.syncs.Load(); n != 0 {
		t.Errorf("%d wal-sync events, want none: nothing was ever forced", n)
	}
}

// TestRecoverTwice: one committed, one aborted and one in-flight
// transaction, a kill that tears the heap, and two restarts in a row.
// Only the commit left a record, and nothing was forced for the others;
// both restarts report the same history, with the committed effect back
// in the store.
func TestRecoverTwice(t *testing.T) {
	r := newRig(t)
	errWork := errors.New("work failed")
	if err := r.ctl.Run(context.Background(), write0(2), func(int, Progress) error { return errWork }); !errors.Is(err, errWork) {
		t.Fatalf("T2: %v, want its work error", err)
	}
	r.holding(t, 3) // in flight at the kill
	t1 := write0(1)
	if err := r.preCommit(t1, []txn.ID{7, 5, 7}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.force(0); err != nil {
		t.Fatal(err)
	}
	if st := r.log.Stats(); st.Appends != 1 || st.Syncs != 1 || r.syncs.Load() != 1 {
		t.Errorf("%d appends, %d syncs, %d wal-sync events; want one of each", st.Appends, st.Syncs, r.syncs.Load())
	}
	r.log.Crash(0)
	if err := r.store.Crash(0); err != nil {
		t.Fatal(err)
	}

	var first *wal.Recovery
	for round := 0; round < 2; round++ {
		st, err := storage.Open(r.hdir, 2, rigStoreOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ctl, rec, err := Recover(r.wdir, sched.C2PLFactory(), liveCosts, WithStorage(st))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rec.Committed) != 1 || rec.Committed[0] != 1 {
			t.Errorf("round %d: committed %v, want [T1]", round, rec.Committed)
		}
		scans, err := wal.Scan(r.wdir)
		if err != nil {
			t.Fatal(err)
		}
		want := wal.Record{Kind: wal.Commit, Seq: 1, Txn: 1, Steps: wal.Footprint(t1), Preds: []txn.ID{5, 7}}
		if len(scans) != 1 || len(scans[0].Records) != 1 || !reflect.DeepEqual(scans[0].Records[0], want) {
			t.Errorf("round %d: the log holds %+v, want %+v alone", round, scans, want)
		}
		rec.Elapsed = 0
		if first == nil {
			first = rec
		} else if !reflect.DeepEqual(rec, first) {
			t.Errorf("second recovery reports %+v, the first %+v", rec, first)
		}
		keys, err := st.Keys(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 || !keys[storage.EffectKey{Txn: 1}] {
			t.Errorf("round %d: partition 0 holds %v, want T1's effect alone", round, keys)
		}
		ctl.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrimitivesCommitAppliesFootprint: a transaction driven through the
// exported Admit / Acquire / Commit — not Run — with a log and a store
// attached leaves its effects in the heap: the commit applies the
// footprint it logs, whoever drove the steps.
func TestPrimitivesCommitAppliesFootprint(t *testing.T) {
	wdir := t.TempDir()
	l, err := wal.Open(wdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st, err := storage.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := modelcheck.NewHistory()
	ctl := New(sched.KWTPGFactory(2), liveCosts, WithWALLog(l), WithStorage(st), WithObserver(h))
	defer ctl.Close()
	ctx := context.Background()
	for _, tx := range []*txn.T{
		txn.New(1, []txn.Step{w(1, 1)}),
		txn.New(2, []txn.Step{r(0, 1), w(2, 1), w(3, 1)}),
	} {
		if err := ctl.Admit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		for step := range tx.Steps {
			if err := ctl.Acquire(ctx, tx, step); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctl.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: map[txn.ID]bool{1: true, 2: true}, Store: st}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitRefusesPartitionOutsideStore: a transaction with a step on a
// partition the attached store lacks is refused at admission, before
// anything is logged — its commit could apply no effect there and a
// restart could not redo its record — and a run around it followed by
// Recover keeps every acknowledged commit.
func TestAdmitRefusesPartitionOutsideStore(t *testing.T) {
	wdir, hdir := t.TempDir(), t.TempDir()
	l, err := wal.Open(wdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(hdir, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := modelcheck.NewHistory()
	ctl := New(sched.C2PLFactory(), liveCosts, WithWALLog(l), WithStorage(st), WithObserver(h))
	ctx := context.Background()
	acked := map[txn.ID]bool{}
	wide := txn.New(1, []txn.Step{w(1, 1), w(6, 1)})
	if err := ctl.Admit(ctx, wide); err == nil {
		t.Errorf("admitted %v, which writes P6 of a 4-partition store", wide.ID)
		for step := range wide.Steps {
			if err := ctl.Acquire(ctx, wide, step); err != nil {
				t.Fatal(err)
			}
		}
		if ctl.Commit(wide) == nil {
			acked[wide.ID] = true
		}
	}
	if ws, _ := ctl.WALStats(); ws.Appends != 0 {
		t.Errorf("%d records appended for the refused transaction", ws.Appends)
	}
	for id := txn.ID(2); id <= 5; id++ {
		if err := ctl.Run(ctx, txn.New(id, []txn.Step{w(txn.PartitionID(id%4), 1)}), nil); err != nil {
			t.Fatal(err)
		}
		acked[id] = true
	}
	ctl.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(hdir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ctl2, rec, err := Recover(wdir, sched.C2PLFactory(), liveCosts, WithStorage(st2))
	if err != nil {
		t.Fatalf("recovery lost the acknowledged commits: %v", err)
	}
	ctl2.Close()
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: acked, Store: st2}); err != nil {
		t.Fatal(err)
	}
}

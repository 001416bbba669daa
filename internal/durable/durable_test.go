package durable_test

// The binding's failure table, driven with real logs and stores:
// Log.Close and Log.Crash provoke the errors, no seam is added for them.

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"batsched/internal/durable"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// rig is one log, one two-partition store and the binding over both.
// Partition 1 is preloaded past the pool's size so touching it evicts;
// partition 0 starts empty, so its heap file has length 0 until a page
// of it is written.
type rig struct {
	wdir, hdir string
	log        *wal.Log
	store      *storage.Store
	b          *durable.Binding
	syncs      atomic.Int32 // KindWALSync events seen
}

const rigPages = 32

func storeOpts(more ...storage.Option) []storage.Option {
	return append([]storage.Option{storage.WithPageSize(512), storage.WithPoolFrames(4)}, more...)
}

func newRig(t *testing.T, more ...storage.Option) *rig {
	t.Helper()
	r := &rig{wdir: t.TempDir(), hdir: t.TempDir()}
	var err error
	if r.store, err = storage.Open(r.hdir, 2, storeOpts(more...)...); err != nil {
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
	r.b = durable.New(r.log, r.store,
		func(e obs.Event) {
			if e.Kind == obs.KindWALSync {
				r.syncs.Add(1)
			}
		},
		func() event.Time { return 0 })
	return r
}

func write0(id txn.ID) *txn.T {
	return txn.New(id, []txn.Step{{Mode: txn.Write, Part: 0, Cost: 1}})
}

// stage runs a one-step writer of partition 0 up to its commit: its
// effect is staged.
func (r *rig) stage(id txn.ID) *txn.T {
	r.store.Stage(id, 0, 0)
	return write0(id)
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

// leftStaged commits whatever is still staged for id and reports how many
// effects that put into partition 0: none once the stage was dropped.
func (r *rig) leftStaged(t *testing.T, id txn.ID) int {
	t.Helper()
	before := r.part0Keys(t)
	if err := r.store.ApplyCommit(id); err != nil {
		t.Fatal(err)
	}
	return r.part0Keys(t) - before
}

// TestPreCommitRefusedIsAbort: a record the log refuses turns the commit
// into an abort with nothing applied, and latches the refusal — the log
// is attached but broken, so the next commit is refused without an
// append.
func TestPreCommitRefusedIsAbort(t *testing.T) {
	r := newRig(t)
	t1 := r.stage(1)
	r.log.Crash(0)
	if err := r.b.PreCommit(t1, 0, nil, 0); err == nil {
		t.Fatal("PreCommit succeeded although the log refused the record")
	}
	if r.b.LogErr() == nil || r.b.Logs() {
		t.Error("the refusal was not latched")
	}
	if err := r.b.PreCommit(r.stage(2), 0, nil, 0); err == nil {
		t.Error("PreCommit succeeded on a broken log")
	}
	for _, id := range []txn.ID{1, 2} {
		if n := r.leftStaged(t, id); n != 0 {
			t.Errorf("%d effects of %v still staged after the refused commit", n, id)
		}
	}
	if n := r.part0Keys(t); n != 0 {
		t.Errorf("partition 0 holds %d effects of commits that became aborts", n)
	}
	if r.b.StoreErr() != nil {
		t.Errorf("nothing was applied, yet StoreErr = %v", r.b.StoreErr())
	}
}

// TestFailedForceLatchesAndBarrierVetoes: a force that fails behind
// applied effects latches both sticky errors, and from then on no page
// image leaves the pool by any path — partition 0's heap file, whose only
// page exists in the pool alone, stays empty. The store starts no
// goroutine, so nothing can force the log ahead of the crash: the
// scenario runs once and any problem fails it.
func TestFailedForceLatchesAndBarrierVetoes(t *testing.T) {
	r := newRig(t)
	if err := r.b.PreCommit(r.stage(1), 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := r.part0Keys(t); n != 1 {
		t.Fatalf("pre-committed effect not visible in the pool: %d keys", n)
	}
	r.log.Crash(0)
	if err := r.b.Force(0); err == nil {
		t.Fatal("Force succeeded on a crashed log with records pending")
	}
	if r.b.LogErr() == nil || r.b.StoreErr() == nil {
		t.Fatalf("failed force latched LogErr=%v StoreErr=%v, want both", r.b.LogErr(), r.b.StoreErr())
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
	t1 := r.stage(1)
	r.stage(3) // in flight at the kill
	if err := r.b.PreCommit(t1, 0, []txn.ID{7, 5, 7}, 0); err != nil {
		t.Fatal(err)
	}
	r.stage(2)
	r.b.Abandon(2)
	if err := r.b.Force(0); err != nil {
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
		st, err := storage.Open(r.hdir, 2, storeOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		log, scans, rec, err := durable.Recover(r.wdir, 1, st)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rec.Committed) != 1 || rec.Committed[0] != 1 {
			t.Errorf("round %d: committed %v, want [T1]", round, rec.Committed)
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
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

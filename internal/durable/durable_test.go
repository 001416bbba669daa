package durable_test

// The binding's failure table, driven with real logs and stores:
// Log.Close and Log.Crash provoke the errors, no seam is added for them.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

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
	syncs      atomic.Int32 // KindWALSync events seen (a flusher's barrier forces from its own goroutine)
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
	r.b = durable.New(r.log, r.store, func(txn.PartitionID) int { return 0 },
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

// begin admits a one-step writer of partition 0 and stages its effect.
func (r *rig) begin(t *testing.T, id txn.ID) durable.Txn {
	t.Helper()
	var d durable.Txn
	if err := r.b.Begin(&d, write0(id), nil, 0); err != nil || !d.Begun() {
		t.Fatalf("Begin(%v) = %v, begun %v", id, err, d.Begun())
	}
	r.store.Stage(id, 0, 0)
	return d
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

func TestBeginOnClosedLog(t *testing.T) {
	r := newRig(t)
	r.log.Close()
	var d durable.Txn
	if err := r.b.Begin(&d, write0(1), nil, 0); err == nil {
		t.Fatal("Begin on a closed log succeeded")
	}
	if d.Begun() {
		t.Error("a refused Begin left the transaction begun")
	}
	if r.b.LogErr() == nil || r.b.Logs() {
		t.Error("the refusal was not latched")
	}
	// Attached but broken: a commit is an abort, and nothing is appended.
	r.store.Stage(1, 0, 0)
	if err := r.b.PreCommit(d, 1, nil, 0); err == nil {
		t.Error("PreCommit succeeded on a broken log")
	}
	if n := r.leftStaged(t, 1); n != 0 {
		t.Errorf("%d effects still staged after the refused commit", n)
	}
}

func TestPreCommitRefusedIsAbort(t *testing.T) {
	r := newRig(t)
	d := r.begin(t, 1)
	r.log.Crash(0)
	if err := r.b.PreCommit(d, 1, nil, 0); err == nil {
		t.Fatal("PreCommit succeeded although the log refused the record")
	}
	if n := r.leftStaged(t, 1); n != 0 {
		t.Errorf("%d effects still staged after the refused commit", n)
	}
	if n := r.part0Keys(t); n != 0 {
		t.Errorf("partition 0 holds %d effects of a commit that became an abort", n)
	}
	if r.b.StoreErr() != nil {
		t.Errorf("nothing was applied, yet StoreErr = %v", r.b.StoreErr())
	}
}

func TestPreCommitWithoutBegin(t *testing.T) {
	r := newRig(t)
	r.store.Stage(1, 0, 0)
	if err := r.b.PreCommit(durable.Txn{}, 1, nil, 0); err == nil {
		t.Fatal("PreCommit without a Begin succeeded")
	}
	r.b.Abort(durable.Txn{}, 2, 0)
	if st := r.log.Stats(); st.Appends != 0 {
		t.Errorf("%d records appended for transactions with no Begin", st.Appends)
	}
	if r.leftStaged(t, 1) != 0 || r.part0Keys(t) != 0 {
		t.Error("the refused commit's effects were kept")
	}
	if r.b.LogErr() != nil {
		t.Errorf("a healthy log was declared broken: %v", r.b.LogErr())
	}
}

func TestAbortNeverForces(t *testing.T) {
	r := newRig(t)
	d := r.begin(t, 1)
	r.b.Abort(d, 1, 0)
	st := r.log.Stats()
	if st.Appends != 2 || st.Syncs != 0 || r.syncs.Load() != 0 {
		t.Errorf("after Begin+Abort: %d appends, %d syncs, %d wal-sync events; want 2, 0, 0", st.Appends, st.Syncs, r.syncs.Load())
	}
	if r.leftStaged(t, 1) != 0 {
		t.Error("the aborted transaction's effects are still staged")
	}
}

// TestFailedForceLatchesAndBarrierVetoes: a force that fails behind
// applied effects latches both sticky errors, and from then on no page
// image leaves the pool by any path — partition 0's heap file, whose only
// page exists in the pool alone, stays empty.
//
// The scenario needs the records still pending when the log dies, and the
// rig's 1 ms flusher can get a force of its own in first — before the
// crash, or in flight across it — after which the log owes nothing and
// pages may rightly leave. Such a force reports a wal-sync event, which
// the scenario itself never does; only then is a problem excused and the
// scenario set up again.
func TestFailedForceLatchesAndBarrierVetoes(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		r, problem := failedForce(t)
		if problem == "" {
			return
		}
		r.store.Quiesce() // a pass in flight finishes reporting its sync
		if r.syncs.Load() == 0 {
			t.Fatal(problem)
		}
	}
	t.Fatal("the flusher forced the log ahead of the crash 20 times in a row")
}

func failedForce(t *testing.T) (r *rig, problem string) {
	r = newRig(t, storage.WithBackgroundFlush(time.Millisecond))
	d := r.begin(t, 1)
	if err := r.b.PreCommit(d, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := r.part0Keys(t); n != 1 {
		t.Fatalf("pre-committed effect not visible in the pool: %d keys", n)
	}
	r.log.Crash(0)
	if err := r.b.Force(0); err == nil {
		return r, "Force succeeded on a crashed log with records pending"
	}
	if r.b.LogErr() == nil || r.b.StoreErr() == nil {
		return r, fmt.Sprintf("failed force latched LogErr=%v StoreErr=%v, want both", r.b.LogErr(), r.b.StoreErr())
	}
	if err := r.store.FlushPartition(0); err == nil {
		return r, "FlushPartition wrote past a log that cannot be forced"
	}
	if err := r.store.Flush(); err == nil {
		return r, "Flush wrote past a log that cannot be forced"
	}
	refused := 0
	for pg := uint32(0); pg < rigPages; pg++ { // eviction pressure on every stripe
		if r.store.TouchPage(1, pg) != nil {
			refused++
		}
	}
	if refused == 0 {
		return r, "no eviction reached the dirty page (or it was written back)"
	}
	time.Sleep(20 * time.Millisecond) // a score of flusher passes
	if n := r.part0Bytes(t); n != 0 {
		return r, fmt.Sprintf("%d bytes of partition 0 reached disk ahead of the log", n)
	}
	return r, ""
}

// TestRecoverTwice: one committed, one aborted and one in-flight
// transaction, a kill that tears the heap, and two restarts in a row —
// the same committed set both times, the in-flight one re-aborted by the
// first and therefore not incomplete for the second, the committed
// effect back in the store.
func TestRecoverTwice(t *testing.T) {
	r := newRig(t)
	d1, d2, d3 := r.begin(t, 1), r.begin(t, 2), r.begin(t, 3)
	if err := r.b.PreCommit(d1, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	r.b.Abort(d2, 2, 0)
	_ = d3 // in flight at the kill
	if err := r.b.Force(0); err != nil {
		t.Fatal(err)
	}
	if n := r.syncs.Load(); n != 1 {
		t.Errorf("%d wal-sync events for one pass", n)
	}
	r.log.Crash(0)
	if err := r.store.Crash(0); err != nil {
		t.Fatal(err)
	}

	for round, wantIncomplete := range []int{1, 0} {
		st, err := storage.Open(r.hdir, 2, storeOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		log, _, rec, err := durable.Recover(r.wdir, 1, st)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rec.Committed) != 1 || rec.Committed[0] != 1 {
			t.Errorf("round %d: committed %v, want [T1]", round, rec.Committed)
		}
		if len(rec.Incomplete) != wantIncomplete {
			t.Errorf("round %d: %d incomplete, want %d", round, len(rec.Incomplete), wantIncomplete)
		}
		if want := 2 - wantIncomplete; len(rec.Aborted) != want {
			t.Errorf("round %d: aborted %v, want %d of them", round, rec.Aborted, want)
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

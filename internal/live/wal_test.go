package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// TestWALKillRecoverRoundTrip is the live controller's half of the
// kill-and-restart story: commit a batch of transactions against a
// caller-owned log, crash the log (SIGKILL-equivalent) with two
// transactions still in flight, recover, and check the committed set
// survived exactly while the in-flight pair left no record and is not
// recovered; then that the recovered controller serves new traffic and
// that a second recovery, after its clean shutdown, recovers everything.
func TestWALKillRecoverRoundTrip(t *testing.T) {
	for _, f := range []sched.Factory{sched.C2PLFactory(), sched.KWTPGFactory(2)} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			l, err := wal.Open(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := modelcheck.NewHistory()
			ctl := New(f, liveCosts, WithWALLog(l), WithRetryDelay(time.Millisecond), WithObserver(h))

			var wg sync.WaitGroup
			for i := 1; i <= 8; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := txn.New(txn.ID(i), []txn.Step{w(txn.PartitionID(i%4), 1)})
					if err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
						p(1)
						return nil
					}); err != nil {
						t.Errorf("txn %d: %v", i, err)
					}
				}()
			}
			wg.Wait()

			// Two transactions admitted (nothing appended) and parked
			// inside their work when the machine dies.
			started := make(chan struct{}, 2)
			release := make(chan struct{})
			inflight := make(chan error, 2)
			for i := 9; i <= 10; i++ {
				i := i
				go func() {
					tx := txn.New(txn.ID(i), []txn.Step{w(txn.PartitionID(i-5), 1)})
					inflight <- ctl.Run(context.Background(), tx, func(step int, p Progress) error {
						started <- struct{}{}
						<-release
						p(1)
						return nil
					})
				}()
			}
			<-started
			<-started
			l.Crash(0.6)
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-inflight; err == nil {
					t.Fatalf("in-flight transaction committed after the WAL died (stats %+v)", ctl.Stats())
				}
			}
			// Durability is broken; the controller must refuse new work
			// rather than run it unlogged.
			tx := txn.New(11, []txn.Step{w(7, 1)})
			if err := ctl.Run(context.Background(), tx, nil); err == nil {
				t.Fatal("admission succeeded on a dead WAL")
			}
			ctl.Close()

			ctl2, rec, err := Recover(dir, f, liveCosts, WithRetryDelay(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Committed) != 8 {
				t.Fatalf("recovered %d committed, want 8: %v", len(rec.Committed), rec.Committed)
			}
			for _, id := range rec.Committed {
				if id < 1 || id > 8 {
					t.Fatalf("resurrected %v", id)
				}
			}
			scans, err := wal.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			inflightOnly(t, scans, rec)
			if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: batchAcked, Killed: true}); err != nil {
				t.Fatal(err)
			}

			// The recovered controller is live: commit one more.
			tx12 := txn.New(12, []txn.Step{w(2, 1)})
			if err := ctl2.Run(context.Background(), tx12, func(step int, p Progress) error {
				p(1)
				return nil
			}); err != nil {
				t.Fatalf("post-recovery run: %v", err)
			}
			if st, ok := ctl2.WALStats(); !ok || st.Appends == 0 {
				t.Errorf("recovered controller WAL stats = %+v, %v", st, ok)
			}
			ctl2.Close()

			// A second recovery agrees, with the post-recovery commit added.
			// ctl2's Close closed the log cleanly: every commit is there,
			// one record each, and nothing is torn.
			ctl3, rec2, err := Recover(dir, f, liveCosts)
			if err != nil {
				t.Fatal(err)
			}
			defer ctl3.Close()
			if len(rec2.Committed) != 9 || rec2.Records != 9 || rec2.TruncatedBytes != 0 {
				t.Fatalf("second recovery found %d committed from %d records, %d torn bytes; want 9 (batch + post-recovery txn), 9, none torn",
					len(rec2.Committed), rec2.Records, rec2.TruncatedBytes)
			}
			scans2, err := wal.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			inflightOnly(t, scans2, rec2)
			if err := modelcheck.VerifyRecovery(scans2, rec2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// batchAcked is what both round trips' clients saw return before the
// kill: the batch 1..8 (a failed Run is a test error of its own).
var batchAcked = map[txn.ID]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true}

// inflightOnly checks a recovery that followed a crash with transactions
// 9 and 10 in flight: they appended nothing, so no record names them and
// the recovery did not commit them.
func inflightOnly(t *testing.T, scans []wal.NodeScan, rec *wal.Recovery) {
	t.Helper()
	for _, ns := range scans {
		for _, r := range ns.Records {
			if r.Txn == 9 || r.Txn == 10 {
				t.Fatalf("in-flight %v left a %v record", r.Txn, r.Kind)
			}
		}
	}
	for _, id := range rec.Committed {
		if id == 9 || id == 10 {
			t.Fatalf("in-flight %v recovered as committed", id)
		}
	}
}

// TestWALAbortsAppendNothing: a work error aborts the transaction, and
// the abort leaves no record — the log holds the commit alone.
func TestWALAbortsAppendNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(sched.ChainFactory(), liveCosts, WithWALLog(l), WithRetryDelay(time.Millisecond))
	good := txn.New(1, []txn.Step{w(0, 1)})
	if err := ctl.Run(context.Background(), good, func(step int, p Progress) error {
		p(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad := txn.New(2, []txn.Step{w(1, 1)})
	if err := ctl.Run(context.Background(), bad, func(step int, p Progress) error {
		return context.Canceled
	}); err == nil {
		t.Fatal("failing work committed")
	}
	ctl.Close()
	if st := l.Stats(); st.Appends != 1 {
		t.Errorf("%d records appended for one commit and one abort, want 1", st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scans, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != 1 || rec.Committed[0] != 1 || rec.Records != 1 {
		t.Errorf("committed %v from %d records, want [T1] from one", rec.Committed, rec.Records)
	}
}

// TestWALKillRecoverTwoSteps repeats the kill-and-restart story with
// two-step transactions, whose Commit records carry the predecessors
// resolved over both steps: the log dies with two transactions in flight
// (traceless, never committed), recovery reconstructs exactly the
// committed set, and the recovered controller runs a two-step
// transaction.
func TestWALKillRecoverTwoSteps(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := sched.C2PLFactory()
	h := modelcheck.NewHistory()
	ctl := New(f, liveCosts, WithWALLog(l), WithRetryDelay(time.Millisecond), WithObserver(h))

	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i), []txn.Step{
				w(txn.PartitionID(i%4), 1),
				w(txn.PartitionID(8+i%4), 1),
			})
			if err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
				p(1)
				return nil
			}); err != nil {
				t.Errorf("txn %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	inflight := make(chan error, 2)
	for i := 9; i <= 10; i++ {
		i := i
		go func() {
			tx := txn.New(txn.ID(i), []txn.Step{w(txn.PartitionID(16+i), 1)})
			inflight <- ctl.Run(context.Background(), tx, func(step int, p Progress) error {
				started <- struct{}{}
				<-release
				p(1)
				return nil
			})
		}()
	}
	<-started
	<-started
	l.Crash(0.6)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-inflight; err == nil {
			t.Fatalf("in-flight transaction committed after the WAL died (stats %+v)", ctl.Stats())
		}
	}
	ctl.Close()

	ctl2, rec, err := Recover(dir, f, liveCosts, WithRetryDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ctl2.Close()
	if len(rec.Committed) != 8 {
		t.Fatalf("recovered %d committed, want 8: %v", len(rec.Committed), rec.Committed)
	}
	for _, id := range rec.Committed {
		if id < 1 || id > 8 {
			t.Fatalf("resurrected %v", id)
		}
	}
	scans, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	inflightOnly(t, scans, rec)
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: batchAcked, Killed: true}); err != nil {
		t.Fatal(err)
	}
	// The recovered controller is live.
	tx := txn.New(12, []txn.Step{w(2, 1), w(9, 1)})
	if err := ctl2.Run(context.Background(), tx, func(step int, p Progress) error {
		p(1)
		return nil
	}); err != nil {
		t.Fatalf("post-recovery run: %v", err)
	}
}

// TestRecoveredControllerRefusesLoggedIDs: a controller built by Recover
// refuses a transaction whose id the recovered log already committed —
// before anything is logged, since a second Commit record for the id
// would make the whole log unrecoverable — and admits one above it; the
// next recovery keeps every commit either controller acknowledged.
func TestRecoveredControllerRefusesLoggedIDs(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := sched.C2PLFactory()
	ctl := New(f, liveCosts, WithWALLog(l))
	for id := txn.ID(1); id <= 3; id++ {
		if err := ctl.Run(context.Background(), txn.New(id, []txn.Step{w(txn.PartitionID(id), 1)}), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ctl2, rec, err := Recover(dir, f, liveCosts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxID != 3 {
		t.Errorf("Recovery.MaxID = %v, want T3", rec.MaxID)
	}
	for _, id := range []txn.ID{2, 3} {
		if err := ctl2.Run(context.Background(), txn.New(id, []txn.Step{w(0, 1)}), nil); err == nil {
			t.Errorf("recovered controller admitted %v, which its log already committed", id)
		}
	}
	if st, _ := ctl2.WALStats(); st.Appends != 0 {
		t.Errorf("%d records appended for refused transactions", st.Appends)
	}
	if err := ctl2.Run(context.Background(), txn.New(4, []txn.Step{w(0, 1)}), nil); err != nil {
		t.Fatal(err)
	}
	ctl2.Close()

	ctl3, rec2, err := Recover(dir, f, liveCosts)
	if err != nil {
		t.Fatalf("the log is unrecoverable after the recovered controller's run: %v", err)
	}
	defer ctl3.Close()
	if len(rec2.Committed) != 4 || rec2.MaxID != 4 {
		t.Fatalf("second recovery found %v committed (max %v), want T1–T4", rec2.Committed, rec2.MaxID)
	}
}

// TestWALForceFollowsReleaseWithDefaultStore: a default store must not
// put the force back under the partition locks. Commit only dirties
// cached pages, so nothing reaches the write barrier on the committer's
// path and the first wal-sync of a run comes after the transaction's
// commit event — which is emitted in the critical section that releases
// its locks.
func TestWALForceFollowsReleaseWithDefaultStore(t *testing.T) {
	st, err := storage.Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := wal.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	var kinds []obs.Kind
	ctl := New(sched.KWTPGFactory(2), liveCosts, WithWALLog(l), WithStorage(st),
		WithObserver(observerFunc(func(e obs.Event) {
			if e.Kind == obs.KindCommit || e.Kind == obs.KindWALSync {
				mu.Lock()
				kinds = append(kinds, e.Kind)
				mu.Unlock()
			}
		})))
	defer ctl.Close()
	tx := txn.New(1, []txn.Step{w(0, 1), w(1, 1)})
	if err := ctl.Run(context.Background(), tx, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 2 || kinds[0] != obs.KindCommit || kinds[1] != obs.KindWALSync {
		t.Fatalf("events %v, want the commit (lock release) and then one wal-sync", kinds)
	}
}

// TestRecoverRejectsLogOption: Recover reopens the log under dir itself;
// handed another one it must refuse rather than replay dir and then
// append to — or silently ignore — the caller's.
func TestRecoverRejectsLogOption(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(sched.C2PLFactory(), liveCosts, WithWALLog(l))
	if err := ctl.Run(context.Background(), txn.New(1, []txn.Step{w(0, 1)}), nil); err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	other, err := wal.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if c, _, err := Recover(dir, sched.C2PLFactory(), liveCosts, WithWALLog(other)); err == nil {
		c.Close()
		t.Error("Recover accepted WithWALLog")
	}
	if st := other.Stats(); st.Appends != 0 {
		t.Errorf("Recover appended %d records to a log it was not given", st.Appends)
	}
}

// TestWALRoutesCommitsByFirstPartition: the controller writes each Commit
// record to node file firstPart mod n of the n-node log it was given —
// the paper's home policy, worked out from the log — under concurrent
// commits, and Recover, told nothing of the layout, reopens
// all three files: it recovers every acknowledged transaction, and its
// own commits keep routing over the three.
func TestWALRoutesCommitsByFirstPartition(t *testing.T) {
	const nodes = 3
	f := sched.C2PLFactory()
	dir := t.TempDir()
	l, err := wal.Open(dir, nodes)
	if err != nil {
		t.Fatal(err)
	}
	h := modelcheck.NewHistory()
	ctl := New(f, liveCosts, WithWALLog(l), WithRetryDelay(time.Millisecond), WithObserver(h))
	var (
		mu    sync.Mutex
		acked = map[txn.ID]bool{}
		wg    sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := txn.ID(1 + g*20 + i)
				first := txn.PartitionID((g + i) % 7)
				tx := txn.New(id, []txn.Step{w(first, 1), r((first+1)%7, 1)})
				if err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
					p(1)
					return nil
				}); err != nil {
					t.Errorf("%v: %v", id, err)
					return
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ctl.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	routed := func(want int) []wal.NodeScan {
		t.Helper()
		scans, err := wal.Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(scans) != nodes {
			t.Fatalf("%d node files, want %d", len(scans), nodes)
		}
		n := 0
		for _, ns := range scans {
			if len(ns.Records) == 0 {
				t.Errorf("node file %d holds no record", ns.Node)
			}
			for _, rec := range ns.Records {
				if home := int(rec.Steps[0].Part) % nodes; rec.Node != home || ns.Node != home {
					t.Errorf("%v (first partition P%d) logged to node %d in file %d, want %d",
						rec.Txn, rec.Steps[0].Part, rec.Node, ns.Node, home)
				}
				n++
			}
		}
		if n != want {
			t.Fatalf("%d records, want %d", n, want)
		}
		return scans
	}
	scans := routed(len(acked))

	ctl2, rec, err := Recover(dir, f, liveCosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != len(acked) {
		t.Fatalf("recovered %d committed, acknowledged %d", len(rec.Committed), len(acked))
	}
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: acked}); err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Run(context.Background(), txn.New(1000, []txn.Step{w(nodes-1, 1)}), nil); err != nil {
		t.Fatal(err)
	}
	ctl2.Close()
	routed(len(acked) + 1)
}

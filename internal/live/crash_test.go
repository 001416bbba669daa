package live

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// TestCrashNodeDoomsPartialWork: a transaction that reported objects
// since its last grant on the crashed node is unrecoverable — its
// Commit runs the abort path and returns ErrNodeCrashed — and the dead
// node's partitions re-home to the survivor. Topology: 2 nodes, 4
// partitions, so node 0 holds partitions 0 and 2.
func TestCrashNodeDoomsPartialWork(t *testing.T) {
	ring, h := obs.NewRing(256), modelcheck.NewHistory()
	ctl := New(sched.KWTPGFactory(2), liveCosts,
		WithTopology(2, 4), WithObserver(obs.Multi(ring, h)))
	defer ctl.Close()
	ctx := context.Background()
	tx := txn.New(1, []txn.Step{w(0, 5)})
	if err := ctl.Admit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx, 0); err != nil {
		t.Fatal(err)
	}
	ctl.ObjectDone(tx, 3) // partial bulk results now live on node 0
	if err := ctl.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Commit(tx); !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("Commit of a doomed transaction returned %v, want ErrNodeCrashed", err)
	}
	st := ctl.Stats()
	if st.NodeCrashes != 1 || st.CrashDoomed != 1 {
		t.Fatalf("stats: %+v, want 1 crash / 1 doomed", st)
	}
	if st.Committed != 0 || st.Aborted != 1 || st.Active != 0 {
		t.Fatalf("stats: %+v, want the doomed transaction aborted", st)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: map[txn.ID]bool{}}); err != nil {
		t.Fatal(err) // nothing acknowledged, so nothing may have committed
	}
	var downs, rehomes, faults int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindNodeDown:
			downs++
			if e.Node != 0 {
				t.Errorf("node-down event for node %d, want 0", e.Node)
			}
		case obs.KindRehome:
			rehomes++
			if e.FromNode != 0 || e.Node != 1 {
				t.Errorf("re-home P%d: %d→%d, want 0→1", e.Part, e.FromNode, e.Node)
			}
		case obs.KindFault:
			if e.Op == "node-crash" {
				faults++
			}
		}
	}
	if downs != 1 || rehomes != 2 || faults != 1 {
		t.Errorf("events: %d downs, %d rehomes, %d node-crash faults; want 1, 2, 1", downs, rehomes, faults)
	}
}

// TestCrashNodeDoomSurfacesAtAcquire: the doomed transaction learns of
// the crash at its next Acquire, not only at Commit.
func TestCrashNodeDoomSurfacesAtAcquire(t *testing.T) {
	h := modelcheck.NewHistory()
	ctl := New(sched.C2PLFactory(), liveCosts, WithTopology(2, 4), WithObserver(h))
	defer ctl.Close()
	ctx := context.Background()
	tx := txn.New(1, []txn.Step{w(0, 2), w(1, 2)})
	if err := ctl.Admit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx, 0); err != nil {
		t.Fatal(err)
	}
	ctl.ObjectDone(tx, 2)
	if err := ctl.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx, 1); !errors.Is(err, ErrNodeCrashed) {
		t.Fatalf("Acquire after the crash returned %v, want ErrNodeCrashed", err)
	}
	if err := ctl.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: map[txn.ID]bool{}}); err != nil {
		t.Fatal(err) // nothing acknowledged, so nothing may have committed
	}
}

// TestCrashNodeRequeuesCleanResident: a transaction holding a lock on
// the dead node with no objects reported since the grant lost nothing —
// it is requeued against the re-homed partition and commits normally.
func TestCrashNodeRequeuesCleanResident(t *testing.T) {
	ring, h := obs.NewRing(256), modelcheck.NewHistory()
	ctl := New(sched.ChainFactory(), liveCosts,
		WithTopology(2, 4), WithObserver(obs.Multi(ring, h)))
	defer ctl.Close()
	ctx := context.Background()
	tx := txn.New(1, []txn.Step{w(0, 2)})
	if err := ctl.Admit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	// The in-flight quantum is redone against the new home; the
	// transaction carries on and commits.
	ctl.ObjectDone(tx, 2)
	if err := ctl.Commit(tx); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.Committed != 1 || st.Aborted != 0 || st.CrashDoomed != 0 {
		t.Fatalf("stats: %+v, want a clean commit", st)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: map[txn.ID]bool{tx.ID: true}}); err != nil {
		t.Fatal(err)
	}
	requeues := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KindRequeue {
			requeues++
			if e.Txn != tx.ID || e.FromNode != 0 || e.Node != 1 {
				t.Errorf("requeue event %+v, want T1 0→1", e)
			}
		}
	}
	if requeues != 1 {
		t.Errorf("%d requeue events, want 1", requeues)
	}
}

// TestRunReturnsErrNodeCrashed drives the crash through the Run path: a
// node dies while the transaction's work function is mid-step with
// reported progress, so Run's commit turns into the abort and the
// caller sees ErrNodeCrashed.
func TestRunReturnsErrNodeCrashed(t *testing.T) {
	h := modelcheck.NewHistory()
	ctl := New(sched.KWTPGFactory(2), liveCosts, WithTopology(2, 4), WithObserver(h))
	defer ctl.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ctl.Run(context.Background(), txn.New(1, []txn.Step{w(0, 3)}),
			func(step int, p Progress) error {
				p(3)
				close(entered)
				<-release
				return nil
			})
	}()
	<-entered
	if err := ctl.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNodeCrashed) {
			t.Fatalf("Run returned %v, want ErrNodeCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after the crash")
	}
	if st := ctl.Stats(); st.Aborted != 1 || st.Committed != 0 {
		t.Fatalf("stats: %+v, want the run aborted", st)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: map[txn.ID]bool{}}); err != nil {
		t.Fatal(err) // nothing acknowledged, so nothing may have committed
	}
}

// TestCrashNodeErrors locks in the error contract: no topology, an
// unknown or already-dead node, the last survivor, and a closed
// controller all refuse.
func TestCrashNodeErrors(t *testing.T) {
	bare := New(sched.C2PLFactory(), liveCosts)
	if err := bare.CrashNode(0); err == nil {
		t.Error("CrashNode without WithTopology succeeded")
	}
	bare.Close()

	ctl := New(sched.C2PLFactory(), liveCosts, WithTopology(2, 4))
	if err := ctl.CrashNode(5); err == nil {
		t.Error("CrashNode of an unknown node succeeded")
	}
	if err := ctl.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CrashNode(0); err == nil {
		t.Error("CrashNode of a dead node succeeded")
	}
	if err := ctl.CrashNode(1); err == nil {
		t.Error("CrashNode of the last alive node succeeded")
	}
	ctl.Close()
	if err := ctl.CrashNode(1); !errors.Is(err, ErrClosed) {
		t.Errorf("CrashNode on a closed controller returned %v, want ErrClosed", err)
	}
}

// TestWatchdogCountsEpisodesNotTicks is the regression test for the
// Stalled/Recovered asymmetry: one stall spanning many silent watchdog
// deadlines must count as ONE episode, paired with exactly one recovery
// when progress resumes. The stall is built so the watchdog cannot cure
// it itself — ASL refuses T2's *admission* while T1 holds the lock, and
// admission waiters are never abort candidates — and is then cleared
// externally by committing the holder (the same shape as a node-crash
// requeue unblocking a run).
func TestWatchdogCountsEpisodesNotTicks(t *testing.T) {
	const period = 10 * time.Millisecond
	ctl := New(sched.ASLFactory(), liveCosts,
		WithRetryDelay(2*time.Millisecond),
		WithWatchdog(period))
	defer ctl.Close()
	ctx := context.Background()
	holder := txn.New(1, []txn.Step{w(0, 1)})
	if err := ctl.Admit(ctx, holder); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- ctl.Run(ctx, txn.New(2, []txn.Step{w(0, 1)}), nil)
	}()
	// Let the stall span many watchdog deadlines. The per-tick bug this
	// test guards against would push Stalled toward ~10 here.
	time.Sleep(15 * period)
	if st := ctl.Stats(); st.Stalled != 1 {
		t.Fatalf("Stalled = %d during one sustained stall, want 1 episode", st.Stalled)
	}
	// External cure: the holder commits, T2 admits and finishes.
	if err := ctl.Commit(holder); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T2 never finished after the stall cleared")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := ctl.Stats()
		if st.Recovered > 0 {
			if st.Stalled != 1 || st.Recovered != 1 {
				t.Fatalf("Stalled = %d, Recovered = %d, want exactly 1 and 1", st.Stalled, st.Recovered)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("Recovered never advanced after the stall cleared")
}

// TestCrashNodeDuringWALCommits runs node crashes against concurrent
// logged commits: under -race, the check that a Commit record's node is
// resolved under the locks CrashNode re-homes partitions under. Every
// transaction writes a partition whose node CrashNode(0) changes — P0 in
// the 2-partition table, or an even partition outside it, whose node
// comes from the alive set Kill rewrites. Each round must recover every
// acknowledged transaction, from records naming nodes of the topology.
func TestCrashNodeDuringWALCommits(t *testing.T) {
	f := sched.C2PLFactory()
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		l, err := wal.Open(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		h := modelcheck.NewHistory()
		ctl := New(f, liveCosts, WithTopology(3, 3), WithWALLog(l), WithShards(2),
			WithRetryDelay(time.Millisecond), WithObserver(h))

		var (
			mu    sync.Mutex
			acked = map[txn.ID]bool{}
			n     atomic.Int32
			wg    sync.WaitGroup
		)
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					id := txn.ID(1 + g*40 + i)
					tx := txn.New(id, []txn.Step{w(txn.PartitionID(3*g), 1)})
					err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
						p(1)
						return nil
					})
					switch {
					case err == nil:
						mu.Lock()
						acked[id] = true
						mu.Unlock()
						n.Add(1)
					case !errors.Is(err, ErrNodeCrashed):
						t.Errorf("txn %v: %v", id, err)
					}
				}
			}()
		}
		for node := 0; node < 2; node++ {
			for n.Load() < int32(100*(node+1)) {
				runtime.Gosched()
			}
			if err := ctl.CrashNode(node); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		ctl.Close()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		ctl2, rec, err := Recover(dir, f, liveCosts)
		if err != nil {
			t.Fatal(err)
		}
		ctl2.Close()
		scans, err := wal.Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range scans {
			for _, r := range ns.Records {
				if r.Node < 0 || r.Node > 2 {
					t.Fatalf("%v logged to node %d, outside the 3-node topology", r.Txn, r.Node)
				}
			}
		}
		if len(rec.Committed) != len(acked) {
			t.Fatalf("recovered %d committed, acknowledged %d", len(rec.Committed), len(acked))
		}
		if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: acked}); err != nil {
			t.Fatal(err)
		}
	}
}

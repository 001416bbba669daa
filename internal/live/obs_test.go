package live

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// TestObserverNoLossOrReorder drives many conflicting single-step
// writers through an observed controller and checks the event stream:
// nothing is lost (every lifecycle event for every transaction arrives)
// and Commit events appear in exactly the order the transactions
// committed. The ground truth for commit order comes from the work
// functions themselves: every transaction writes the same partition, so
// the critical sections are totally ordered and each transaction
// records its turn before releasing the lock.
func TestObserverNoLossOrReorder(t *testing.T) {
	const n = 24
	ring := obs.NewRing(1 << 14)
	ctl := New(sched.KWTPGFactory(2), liveCosts,
		WithRetryDelay(time.Millisecond),
		WithObserver(ring))
	defer ctl.Close()

	var orderMu sync.Mutex
	var trueOrder []txn.ID
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i+1), []txn.Step{w(0, 1)})
			err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
				orderMu.Lock()
				trueOrder = append(trueOrder, tx.ID)
				orderMu.Unlock()
				p(1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if len(ring.Events()) == 1<<14 {
		t.Fatal("ring full: events may have been evicted; enlarge it")
	}
	counts := map[obs.Kind]int{}
	last := map[txn.ID]obs.Kind{}
	var commitOrder []txn.ID
	for _, e := range ring.Events() {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KindAdmit:
			if k, seen := last[e.Txn]; seen {
				t.Fatalf("txn %v: Admit after %v", e.Txn, k)
			}
		case obs.KindRequest:
			if last[e.Txn] != obs.KindAdmit {
				t.Fatalf("txn %v: Request after %v", e.Txn, last[e.Txn])
			}
		case obs.KindObjectDone:
			if last[e.Txn] != obs.KindRequest {
				t.Fatalf("txn %v: ObjectDone after %v", e.Txn, last[e.Txn])
			}
		case obs.KindCommit:
			if last[e.Txn] != obs.KindObjectDone {
				t.Fatalf("txn %v: Commit after %v", e.Txn, last[e.Txn])
			}
			if e.Decision == "aborted" {
				t.Fatalf("txn %v reported aborted", e.Txn)
			}
			commitOrder = append(commitOrder, e.Txn)
		}
		if e.Kind != obs.KindDecision && e.Kind != obs.KindResolve && e.Kind != obs.KindCriticalPathChange {
			last[e.Txn] = e.Kind
		}
	}
	for _, k := range []obs.Kind{obs.KindAdmit, obs.KindRequest, obs.KindObjectDone, obs.KindCommit} {
		if counts[k] != n {
			t.Errorf("%v events = %d, want %d (counts %v)", k, counts[k], n, counts)
		}
	}
	if counts[obs.KindDecision] < 2*n {
		t.Errorf("decision events = %d, want at least %d", counts[obs.KindDecision], 2*n)
	}
	if len(commitOrder) != len(trueOrder) {
		t.Fatalf("commit events %d, commits %d", len(commitOrder), len(trueOrder))
	}
	for i := range trueOrder {
		if commitOrder[i] != trueOrder[i] {
			t.Fatalf("commit order diverges at %d: events %v, actual %v", i, commitOrder, trueOrder)
		}
	}
}

// TestStatsSnapshotUnderRace hammers Stats() from a reader goroutine
// while transactions commit and abort, then checks the final snapshot
// splits outcomes correctly. Run with -race this also proves the
// counters are properly synchronized.
func TestStatsSnapshotUnderRace(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	boom := errors.New("boom")

	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				st := ctl.Stats()
				if st.Committed+st.Aborted > st.Admitted {
					t.Error("finished more transactions than were admitted")
					return
				}
			}
		}
	}()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i+1), []txn.Step{w(txn.PartitionID(i%4), 1)})
			err := ctl.Run(context.Background(), tx, func(int, Progress) error {
				if i%2 == 1 {
					return boom
				}
				return nil
			})
			if i%2 == 1 && !errors.Is(err, boom) {
				t.Errorf("txn %d: err = %v, want boom", i+1, err)
			}
		}()
	}
	wg.Wait()
	close(done)

	st := ctl.Stats()
	if st.Admitted != n || st.Committed != n/2 || st.Aborted != n/2 {
		t.Errorf("stats %+v, want %d admitted, %d committed, %d aborted", st, n, n/2, n/2)
	}
	if st.Active != 0 {
		t.Errorf("active %d after all transactions finished", st.Active)
	}
	if st.Granted < n/2 {
		t.Errorf("granted %d, want at least %d", st.Granted, n/2)
	}
}

// TestStepLevelAPI exercises the exported Admit/Acquire/ObjectDone/
// Commit/Abort primitives directly, including abort accounting.
func TestStepLevelAPI(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	ctx := context.Background()

	tx := txn.New(1, []txn.Step{w(0, 2), w(1, 1)})
	if err := ctl.Admit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx, 0); err != nil {
		t.Fatal(err)
	}
	ctl.ObjectDone(tx, 2)
	ctl.Abort(tx)

	// The partition must be free again for the next transaction.
	tx2 := txn.New(2, []txn.Step{w(0, 1)})
	if err := ctl.Admit(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, tx2, 0); err != nil {
		t.Fatal(err)
	}
	ctl.Commit(tx2)

	st := ctl.Stats()
	if st.Admitted != 2 || st.Committed != 1 || st.Aborted != 1 || st.Active != 0 {
		t.Errorf("stats %+v, want 2 admitted / 1 committed / 1 aborted / 0 active", st)
	}
}

package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// epochCtl builds an EPOCH-scheduled controller with fast retries.
func epochCtl(opts ...Option) *Controller {
	opts = append([]Option{WithRetryDelay(time.Millisecond)}, opts...)
	return New(sched.MustLookup("EPOCH"), liveCosts, opts...)
}

// TestRunBatchCommitsEverything pushes a mixed batch — conflicting
// writers plus disjoint singletons — through the synchronous batch
// path and checks every member commits exactly once, with mutual
// exclusion intact inside each partition.
func TestRunBatchCommitsEverything(t *testing.T) {
	ctl := epochCtl()
	defer ctl.Close()
	const n = 12
	ts := make([]*txn.T, n)
	for i := range ts {
		// Three writers per partition → 4 clusters of 3.
		ts[i] = txn.New(txn.ID(i+1), []txn.Step{w(txn.PartitionID(i%4), 1)})
	}
	var inside [4]int32
	errs := ctl.RunBatch(context.Background(), ts, func(tx *txn.T, step int, p Progress) error {
		part := tx.Steps[step].Part
		if atomic.AddInt32(&inside[part], 1) != 1 {
			return errors.New("two writers inside one partition")
		}
		time.Sleep(100 * time.Microsecond)
		atomic.AddInt32(&inside[part], -1)
		p(1)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := ctl.Stats()
	if st.Committed != n || st.Active != 0 {
		t.Errorf("stats %+v, want %d committed", st, n)
	}
	if st.Epochs != 1 {
		t.Errorf("epochs %d, want 1", st.Epochs)
	}
	if st.BatchAdmitted == 0 {
		t.Error("no transactions admitted through the batch path")
	}
}

// TestSubmitWindowBatches drives the Submit/window pipeline: a burst of
// submissions inside one window must flush as one epoch (or very few),
// all commit, and the flush must reach the observer.
func TestSubmitWindowBatches(t *testing.T) {
	metrics := obs.NewMetrics()
	ctl := epochCtl(
		WithBatchWindow(50*time.Millisecond),
		WithObserver(metrics),
	)
	defer ctl.Close()
	const n = 10
	var chans []<-chan error
	for i := 0; i < n; i++ {
		tx := txn.New(txn.ID(i+1), []txn.Step{w(txn.PartitionID(i), 1)})
		chans = append(chans, ctl.Submit(context.Background(), tx, func(step int, p Progress) error {
			p(1)
			return nil
		}))
	}
	for i, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("txn %d: no result", i)
		}
	}
	st := ctl.Stats()
	if st.Committed != n {
		t.Errorf("committed %d of %d", st.Committed, n)
	}
	if st.Epochs == 0 || st.Epochs > 3 {
		t.Errorf("epochs %d, want the burst batched into a few windows", st.Epochs)
	}
	sm := metrics.Sched("EPOCH")
	if sm == nil {
		t.Fatal("no EPOCH metrics")
	}
	if sm.Epochs != st.Epochs {
		t.Errorf("observer saw %d epoch flushes, stats %d", sm.Epochs, st.Epochs)
	}
	if sm.BatchSize.Count() == 0 {
		t.Error("no batch sizes observed")
	}
}

// TestSubmitWithoutWindowDegeneratesToRun pins the no-window contract:
// Submit still executes and commits, with zero epochs flushed.
func TestSubmitWithoutWindowDegeneratesToRun(t *testing.T) {
	ctl := epochCtl()
	defer ctl.Close()
	tx := txn.New(1, []txn.Step{w(0, 1)})
	if err := <-ctl.Submit(context.Background(), tx, nil); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.Committed != 1 || st.Epochs != 0 {
		t.Errorf("stats %+v, want 1 committed and 0 epochs", st)
	}
}

// TestSubmitAfterCloseFails pins shutdown: pending and late submissions
// deliver ErrClosed instead of hanging.
func TestSubmitAfterCloseFails(t *testing.T) {
	ctl := epochCtl(WithBatchWindow(time.Hour)) // window never fires
	for i := 0; i < 3; i++ {
		tx := txn.New(txn.ID(i+1), []txn.Step{w(0, 1)})
		ch := ctl.Submit(context.Background(), tx, nil)
		defer func(i int, ch <-chan error) {
			if err := <-ch; !errors.Is(err, ErrClosed) {
				t.Errorf("pending submission %d: %v, want ErrClosed", i, err)
			}
		}(i, ch)
	}
	ctl.Close()
	late := txn.New(99, []txn.Step{w(0, 1)})
	if err := <-ctl.Submit(context.Background(), late, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("late submission: %v, want ErrClosed", err)
	}
}

// TestRunBatchFallsBackPerArrival runs RunBatch against a non-batch
// scheduler (CHAIN): no epoch admission happens, but every member still
// admits and commits through the per-arrival path.
func TestRunBatchFallsBackPerArrival(t *testing.T) {
	ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	ts := []*txn.T{
		txn.New(1, []txn.Step{w(0, 1)}),
		txn.New(2, []txn.Step{w(0, 1)}),
		txn.New(3, []txn.Step{w(1, 1)}),
	}
	for i, err := range ctl.RunBatch(context.Background(), ts, nil) {
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := ctl.Stats()
	if st.Committed != 3 || st.BatchAdmitted != 0 {
		t.Errorf("stats %+v, want 3 committed, none batch-admitted", st)
	}
}

// TestEpochChaosLive is the live chaos run for the epoch path: faulted
// submissions through the window pipeline, with injected aborts,
// refusals, slow I/O and a watchdog. Every submission must resolve —
// commit or a recognized fault error — and the controller must stay
// invariant-clean.
func TestEpochChaosLive(t *testing.T) {
	inj, err := fault.New(7, fault.Config{
		AbortRate:        0.2,
		CrashRate:        0.1,
		SlowIORate:       0.2,
		SlowIOFactor:     2,
		AdmitRefusalRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := modelcheck.NewHistory()
	ctl := epochCtl(
		WithBatchWindow(20*time.Millisecond),
		WithFaults(inj),
		WithWatchdog(100*time.Millisecond),
		WithObserver(h),
	)
	defer ctl.Close()
	const n = 40
	chans := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		tx := txn.New(txn.ID(i+1), []txn.Step{
			w(txn.PartitionID(i%8), 1), r(txn.PartitionID((i+3)%8), 1),
		})
		chans[i] = ctl.Submit(context.Background(), tx, func(step int, p Progress) error {
			p(1)
			return nil
		})
	}
	committed, faulted := 0, 0
	acked := map[txn.ID]bool{}
	for i, ch := range chans {
		select {
		case err := <-ch:
			switch {
			case err == nil:
				committed++
				acked[txn.ID(i+1)] = true
			case errors.Is(err, fault.ErrInjectedAbort),
				errors.Is(err, fault.ErrInjectedCrash),
				errors.Is(err, ErrWatchdogAborted):
				faulted++
			default:
				t.Fatalf("txn %d: unexpected error %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("txn %d: no result", i)
		}
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: acked}); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if committed+faulted != n {
		t.Errorf("resolved %d+%d of %d", committed, faulted, n)
	}
	if int(st.Committed) != committed {
		t.Errorf("stats committed %d, observed %d", st.Committed, committed)
	}
	if st.Epochs == 0 {
		t.Error("no epochs flushed")
	}
	t.Logf("epoch live chaos: %d committed, %d faulted, %d epochs", committed, faulted, st.Epochs)
}

// TestRunBatchClusterOrder pins the dispatch contract inside a cluster:
// its members run one at a time, in batch order, whatever the declared
// costs would tempt a weight-ordering scheduler to prefer — an inverted
// order would park the worker behind a member queued after it and hang
// the batch. Every member must commit.
func TestRunBatchClusterOrder(t *testing.T) {
	shapes := []struct {
		name  string
		costs []float64
		parts []txn.PartitionID // nil = every member writes partition 0
	}{
		{name: "big-small", costs: []float64{50, 1}},
		{name: "small-big", costs: []float64{1, 50}},
		{name: "mid-big-small", costs: []float64{10, 50, 1}},
		{name: "asc", costs: []float64{1, 10, 50}},
		{name: "desc", costs: []float64{50, 10, 1}},
		{name: "equal", costs: []float64{5, 5, 5}},
		{name: "vee", costs: []float64{50, 1, 50}},
		{name: "two-clusters", costs: []float64{50, 1, 1, 50, 10, 10}, parts: []txn.PartitionID{0, 1, 0, 1, 0, 1}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			ctl := epochCtl()
			defer ctl.Close()
			ts := make([]*txn.T, len(sh.costs))
			for i, c := range sh.costs {
				var part txn.PartitionID
				if sh.parts != nil {
					part = sh.parts[i]
				}
				ts[i] = txn.New(txn.ID(i+1), []txn.Step{w(part, c)})
			}
			var mu sync.Mutex
			order := make(map[txn.PartitionID][]txn.ID)
			done := make(chan []error, 1)
			go func() {
				done <- ctl.RunBatch(context.Background(), ts, func(tx *txn.T, step int, p Progress) error {
					mu.Lock()
					part := tx.Steps[step].Part
					order[part] = append(order[part], tx.ID)
					mu.Unlock()
					p(tx.Steps[step].Cost)
					return nil
				})
			}()
			select {
			case errs := <-done:
				for i, err := range errs {
					if err != nil {
						t.Errorf("txn %d: %v", i+1, err)
					}
				}
			case <-time.After(3 * time.Second):
				t.Fatal("RunBatch hung")
			}
			if st := ctl.Stats(); int(st.Committed) != len(ts) || st.Active != 0 {
				t.Errorf("stats %+v, want %d committed", st, len(ts))
			}
			ran := 0
			for part, ids := range order {
				ran += len(ids)
				for i := 1; i < len(ids); i++ {
					if ids[i] < ids[i-1] {
						t.Errorf("partition %v cluster ran out of batch order: %v", part, ids)
					}
				}
			}
			if ran != len(ts) {
				t.Errorf("%d of %d members ran", ran, len(ts))
			}
		})
	}
}

// TestBatchAdmissionRejectsShards pins the EPOCH × shards contract:
// batch admission needs one scheduler's global view, so asking a sharded
// controller for it is an error the caller sees — never a silent
// per-arrival run of a different algorithm.
func TestBatchAdmissionRejectsShards(t *testing.T) {
	ctx := context.Background()
	tx := func(id txn.ID) *txn.T { return txn.New(id, []txn.Step{w(0, 1)}) }

	ctl := epochCtl(WithBatchWindow(time.Millisecond), WithShards(4))
	defer ctl.Close()
	if err := ctl.Admit(ctx, tx(1)); !errors.Is(err, errBatchShards) {
		t.Errorf("Admit: %v, want errBatchShards", err)
	}
	if err := ctl.Run(ctx, tx(2), nil); !errors.Is(err, errBatchShards) {
		t.Errorf("Run: %v, want errBatchShards", err)
	}
	select {
	case err := <-ctl.Submit(ctx, tx(3), nil):
		if !errors.Is(err, errBatchShards) {
			t.Errorf("Submit: %v, want errBatchShards", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit: no result")
	}
	for i, err := range ctl.RunBatch(ctx, []*txn.T{tx(4), tx(5)}, nil) {
		if !errors.Is(err, errBatchShards) {
			t.Errorf("RunBatch member %d: %v, want errBatchShards", i, err)
		}
	}
	if st := ctl.Stats(); st.Admitted != 0 || st.Epochs != 0 {
		t.Errorf("stats %+v, want nothing admitted", st)
	}

	// Without a window a sharded controller is valid; only its RunBatch
	// has no batch admission to offer.
	sharded := epochCtl(WithShards(4))
	defer sharded.Close()
	for i, err := range sharded.RunBatch(ctx, []*txn.T{tx(1), tx(2)}, nil) {
		if !errors.Is(err, errBatchShards) {
			t.Errorf("sharded RunBatch member %d: %v, want errBatchShards", i, err)
		}
	}
	if err := sharded.Run(ctx, tx(3), nil); err != nil {
		t.Errorf("sharded Run: %v", err)
	}
}

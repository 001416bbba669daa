package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/txn"
	"batsched/internal/workload"
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

// TestEpochChaosLive is the live chaos run for the batch path: faulted
// batches through RunBatch, with injected aborts, crashes, admission
// refusals, slow I/O and a watchdog. Every member must resolve — commit
// or a recognized fault error — the controller must stay invariant-clean
// and the history must certify.
func TestEpochChaosLive(t *testing.T) {
	const seed = 7
	inj, err := fault.New(seed, fault.Config{
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
		WithFaults(inj),
		WithWatchdog(100*time.Millisecond),
		WithObserver(h),
	)
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n, batch = 40, 8
	committed, faulted := 0, 0
	acked := map[txn.ID]bool{}
	for base := 0; base < n; base += batch {
		ts := make([]*txn.T, batch)
		for j := range ts {
			i := base + j
			ts[j] = txn.New(txn.ID(i+1), []txn.Step{
				w(txn.PartitionID(i%8), 1), r(txn.PartitionID((i+3)%8), 1),
			})
		}
		errs := ctl.RunBatch(ctx, ts, func(tx *txn.T, step int, p Progress) error {
			p(1)
			return nil
		})
		for j, err := range errs {
			switch {
			case err == nil:
				committed++
				acked[ts[j].ID] = true
			case errors.Is(err, fault.ErrInjectedAbort),
				errors.Is(err, fault.ErrInjectedCrash),
				errors.Is(err, ErrWatchdogAborted):
				faulted++
			default:
				t.Fatalf("fault seed %d: %v: unexpected error %v", seed, ts[j].ID, err)
			}
		}
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatalf("fault seed %d: %v", seed, err)
	}
	if err := h.Certify(modelcheck.Evidence{Acked: acked}); err != nil {
		t.Fatalf("fault seed %d: %v", seed, err)
	}
	st := ctl.Stats()
	if committed+faulted != n {
		t.Errorf("fault seed %d: resolved %d+%d of %d", seed, committed, faulted, n)
	}
	if int(st.Committed) != committed || st.Active != 0 {
		t.Errorf("fault seed %d: stats %+v, observed %d commits", seed, st, committed)
	}
	if st.Epochs != n/batch || st.BatchAdmitted == 0 {
		t.Errorf("fault seed %d: %d epochs, %d batch-admitted, want %d epochs", seed, st.Epochs, st.BatchAdmitted, n/batch)
	}
	t.Logf("epoch live chaos: %d committed, %d faulted, %d epochs", committed, faulted, st.Epochs)
}

// TestRunBatchClusterOrder runs conflict clusters whose declared costs
// tempt a weight-ordering scheduler to prefer a member other than the
// first: whatever order W picks, the member it prefers must be able to
// ask — a dispatch that queued it behind the member it is preferred to
// would hang the batch. Every member must commit, each exactly once.
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
			var ran atomic.Int32
			done := make(chan []error, 1)
			go func() {
				done <- ctl.RunBatch(context.Background(), ts, func(tx *txn.T, step int, p Progress) error {
					ran.Add(1)
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
			if n := int(ran.Load()); n != len(ts) {
				t.Errorf("%d of %d members ran", n, len(ts))
			}
		})
	}
}

// TestBatchAdmissionRejectsShards pins the EPOCH × shards contract:
// batch admission needs one scheduler's global view, so asking a sharded
// controller for it is an error the caller sees — never a silent
// per-arrival run of a different algorithm. The controller itself is
// valid: only its RunBatch has no batch admission to offer.
func TestBatchAdmissionRejectsShards(t *testing.T) {
	ctx := context.Background()
	tx := func(id txn.ID) *txn.T { return txn.New(id, []txn.Step{w(0, 1)}) }
	sharded := epochCtl(WithShards(4))
	defer sharded.Close()
	for i, err := range sharded.RunBatch(ctx, []*txn.T{tx(1), tx(2)}, nil) {
		if !errors.Is(err, errBatchShards) {
			t.Errorf("sharded RunBatch member %d: %v, want errBatchShards", i, err)
		}
	}
	if st := sharded.Stats(); st.Admitted != 0 || st.Epochs != 0 {
		t.Errorf("stats %+v, want nothing admitted", st)
	}
	if err := sharded.Run(ctx, tx(3), nil); err != nil {
		t.Errorf("sharded Run: %v", err)
	}
}

// TestRunBatchNilMember: a nil member is answered in its own slot, as Run
// answers it, before the admission critical section — the other members
// run, and the controller (its shard lock included) stays usable.
func TestRunBatchNilMember(t *testing.T) {
	for _, f := range []sched.Factory{sched.MustLookup("EPOCH"), sched.ChainFactory()} {
		t.Run(f.Label, func(t *testing.T) {
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			ts := []*txn.T{
				txn.New(1, []txn.Step{w(0, 1)}), nil, txn.New(2, []txn.Step{w(0, 1)}), nil, txn.New(3, []txn.Step{w(1, 1)}),
			}
			errs := ctl.RunBatch(context.Background(), ts, nil)
			for i, err := range errs {
				if ts[i] == nil {
					if !errors.Is(err, errNilTxn) {
						t.Errorf("slot %d: %v, want %v", i, err, errNilTxn)
					}
				} else if err != nil {
					t.Errorf("slot %d (%v): %v", i, ts[i].ID, err)
				}
			}
			if st := ctl.Stats(); st.Committed != 3 || st.Active != 0 {
				t.Errorf("stats %+v, want 3 committed", st)
			}
			if err := ctl.Run(context.Background(), txn.New(4, []txn.Step{w(0, 1)}), nil); err != nil {
				t.Errorf("Run after the batch: %v", err)
			}
		})
	}
}

// TestRunBatchHotSet drives the batch path with the paper's own workload
// — the Pattern2 hot set the benchmark's hot-* rows use — in 16-member
// batches: EPOCH (one batched admission per batch) and CHAIN (no batch
// surface: every member admits per arrival). Multi-step members whose
// costs put a later member first in W are exactly what a dispatch that
// orders a batch by anything but the scheduler wedges on; here every
// member must commit inside the deadline, and each run ends in the
// contract certificate. Run with -race (`make verify`).
func TestRunBatchHotSet(t *testing.T) {
	const batch, batches = 16, 125
	for _, f := range []sched.Factory{sched.MustLookup("EPOCH"), sched.ChainFactory()} {
		t.Run(f.Label, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for seed := int64(1); seed <= 3; seed++ {
				repro := fmt.Sprintf("seed %d; repro: go test -race -count=1 -run 'TestRunBatchHotSet/%s' ./internal/live/", seed, f.Label)
				h := modelcheck.NewHistory()
				ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithObserver(h))
				gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
				rng := rand.New(rand.NewSource(seed))
				id := txn.ID(0)
				for b := 0; b < batches; b++ {
					ts := make([]*txn.T, batch)
					for i := range ts {
						id++
						ts[i] = gen.Next(id, rng)
					}
					errs := ctl.RunBatch(ctx, ts, func(tx *txn.T, step int, p Progress) error {
						p(tx.Steps[step].Cost)
						return nil
					})
					for i, err := range errs {
						if err != nil {
							ctl.Close()
							t.Fatalf("batch %d, %v: %v (stats %+v); %s", b, ts[i].ID, err, ctl.Stats(), repro)
						}
					}
				}
				st := ctl.Stats()
				if st.Committed != batch*batches || st.Active != 0 {
					t.Errorf("stats %+v, want %d committed and none active; %s", st, batch*batches, repro)
				}
				wantEpochs := uint64(0) // CHAIN has no batch surface
				if _, ok := f.New(liveCosts).(sched.BatchAdmitter); ok {
					wantEpochs = batches
				}
				if st.Epochs != wantEpochs {
					t.Errorf("%d batch admissions over %d batches, want %d; %s", st.Epochs, batches, wantEpochs, repro)
				}
				if err := ctl.CheckInvariants(); err != nil {
					t.Errorf("%v; %s", err, repro)
				}
				if err := h.Certify(modelcheck.Evidence{}); err != nil {
					t.Errorf("%v; %s", err, repro)
				}
				ctl.Close()
			}
		})
	}
}

package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/modelcheck"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// TestProgressNeverNeedsRetryDelay is the liveness half of the wait
// path's contract: every refusal is re-decided by an event — a commit, an
// abort, a granted admission, or the quiescence re-dispatch of waitLocked
// — never by the §3.2 timer. The paper's Pattern2 hot set at MPL 16 keeps
// every kind of refusal in play (Blocked, Delayed, refused admissions);
// the retry delay is an hour, so a
// single refusal that only the timer would have re-decided wedges the cell
// into its deadline. Each cell ends in the contract certificate. Run with
// -race (`make verify`).
func TestProgressNeverNeedsRetryDelay(t *testing.T) {
	const clients, total = 16, 5000
	for _, f := range []sched.Factory{
		sched.ChainFactory(), sched.KWTPGFactory(2), sched.C2PLFactory(), sched.ASLFactory(),
	} {
		t.Run(f.Label, func(t *testing.T) {
			h := modelcheck.NewHistory()
			ctl := New(f, liveCosts, WithRetryDelay(time.Hour), WithObserver(h))
			defer ctl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
			var next, committed atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for {
						k := next.Add(1)
						if k > total {
							return
						}
						tx := gen.Next(txn.ID(k), rng)
						err := ctl.Run(ctx, tx, func(step int, p Progress) error {
							p(tx.Steps[step].Cost)
							return nil
						})
						if err != nil {
							return // the deadline; reported below
						}
						committed.Add(1)
					}
				}(rand.New(rand.NewSource(int64(c) + 1)))
			}
			wg.Wait()
			if n := committed.Load(); n != total {
				t.Fatalf("committed %d of %d with the retry delay out of reach: a refusal waited for the timer; "+
					"repro: go test -race -count=1 -run 'TestProgressNeverNeedsRetryDelay/%s' ./internal/live/", n, total, f.Label)
			}
			if err := ctl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := h.Certify(modelcheck.Evidence{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkLiveHotSet is the contended hot path while working on it: the
// Pattern2 hot set through a bare controller (no WAL, no storage, no
// observer) at MPL 16, closed loop, the benchmark's 1 ms retry delay. One
// op is one committed transaction; waits/op is Stats.Retries per commit.
func BenchmarkLiveHotSet(b *testing.B) {
	for _, f := range []sched.Factory{sched.ChainFactory(), sched.KWTPGFactory(2)} {
		b.Run(f.Label, func(b *testing.B) {
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < 16; c++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					ctx := context.Background()
					for {
						k := next.Add(1)
						if k > int64(b.N) {
							return
						}
						tx := gen.Next(txn.ID(k), rng)
						err := ctl.Run(ctx, tx, func(step int, p Progress) error {
							p(tx.Steps[step].Cost)
							return nil
						})
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(rand.New(rand.NewSource(int64(c) + 1)))
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(ctl.Stats().Retries)/float64(b.N), "waits/op")
		})
	}
}

// TestRunBatchHotSet drives CHAIN with the paper's own workload — the
// Pattern2 hot set the benchmark's hot-* rows use — in batches of 16
// concurrent Run calls, each batch waiting for all of its members.
// Multi-step members whose costs put a later arrival first in W are what
// a dispatch that orders arrivals by anything but the scheduler wedges
// on; here every member must commit inside the deadline, and each seed
// ends in the contract certificate. Run with -race (`make verify`).
func TestRunBatchHotSet(t *testing.T) {
	const batch, batches = 16, 125
	f := sched.ChainFactory()
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
				errs := runAll(ctx, ctl, ts)
				for i, err := range errs {
					if err != nil {
						ctl.Close()
						t.Fatalf("batch %d, %v: %v (stats %+v); %s", b, ts[i].ID, err, ctl.Stats(), repro)
					}
				}
			}
			if st := ctl.Stats(); st.Committed != batch*batches || st.Active != 0 {
				t.Errorf("stats %+v, want %d committed and none active; %s", st, batch*batches, repro)
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

// TestRunBatchNilMember runs a batch of concurrent Run calls in which
// some members are nil, under CHAIN: each nil member is answered
// errNilTxn, the others all commit, and the controller still serves a
// Run after the batch.
func TestRunBatchNilMember(t *testing.T) {
	t.Run("CHAIN", func(t *testing.T) {
		ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
		defer ctl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ts := []*txn.T{
			txn.New(1, []txn.Step{w(0, 1)}), nil, txn.New(2, []txn.Step{w(0, 1)}), nil, txn.New(3, []txn.Step{w(1, 1)}),
		}
		errs := runAll(ctx, ctl, ts)
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
		if err := ctl.Run(ctx, txn.New(4, []txn.Step{w(0, 1)}), nil); err != nil {
			t.Errorf("Run after the batch: %v", err)
		}
	})
}

// runAll runs every transaction of ts on its own goroutine, each step
// reporting its declared cost, and returns their errors in input order.
func runAll(ctx context.Context, ctl *Controller, ts []*txn.T) []error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i, tx := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ctl.Run(ctx, tx, func(step int, p Progress) error {
				p(tx.Steps[step].Cost)
				return nil
			})
		}()
	}
	wg.Wait()
	return errs
}

// TestRunClusterOrder runs conflict clusters whose declared costs tempt
// CHAIN's weight ordering to prefer a member other than the first to
// arrive: whatever order W picks, the member it prefers must be able to
// ask, so concurrent Run calls on one cluster must all commit.
func TestRunClusterOrder(t *testing.T) {
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
		t.Run(sh.name, func(t *testing.T) {
			ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			ts := make([]*txn.T, len(sh.costs))
			for i, c := range sh.costs {
				var part txn.PartitionID
				if sh.parts != nil {
					part = sh.parts[i]
				}
				ts[i] = txn.New(txn.ID(i+1), []txn.Step{w(part, c)})
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			for i, err := range runAll(ctx, ctl, ts) {
				if err != nil {
					t.Errorf("txn %d: %v", i+1, err)
				}
			}
			if st := ctl.Stats(); int(st.Committed) != len(ts) || st.Active != 0 || int(st.Granted) != len(ts) {
				t.Errorf("stats %+v, want %d committed, each granted once", st, len(ts))
			}
		})
	}
}

// delayFirst is a scripted scheduler: it admits everything, holds no
// locks, and answers the first request for each step index Delayed and
// every later one Granted, logging when it answered.
type delayFirst struct {
	asked map[int]bool
	log   chan answer
}

type answer struct {
	step int
	dec  sched.Decision
	at   time.Time
}

func (s *delayFirst) Name() string { return "delayFirst" }
func (s *delayFirst) Admit(*txn.T, event.Time) sched.Outcome {
	return sched.Outcome{Decision: sched.Granted}
}
func (s *delayFirst) ObjectDone(*txn.T, float64, event.Time)                    {}
func (s *delayFirst) Commit(*txn.T, event.Time) ([]txn.PartitionID, event.Time) { return nil, 0 }
func (s *delayFirst) Abort(*txn.T, event.Time) ([]txn.PartitionID, event.Time)  { return nil, 0 }

func (s *delayFirst) Request(_ *txn.T, step int, _ event.Time) sched.Outcome {
	dec := sched.Granted
	if !s.asked[step] {
		s.asked[step], dec = true, sched.Delayed
	}
	s.log <- answer{step, dec, time.Now()}
	return sched.Outcome{Decision: dec}
}

// TestDelayedWaitNoStaleTick pins the reused §3.2 resubmission timer: a
// transaction parks Delayed, a wake event (another admission) re-decides
// it while its timer is still pending, it works longer than the retry
// delay, and then parks Delayed again. The second wait must last the
// whole retry delay — a tick the first wait left in the timer's channel
// would end it at once. Run with -race (`make verify`).
func TestDelayedWaitNoStaleTick(t *testing.T) {
	const retry = 100 * time.Millisecond
	// log holds all four answers, so Request never blocks under the controller's mutex.
	s := &delayFirst{asked: make(map[int]bool), log: make(chan answer, 4)}
	f := sched.Factory{Label: s.Name(), New: func(sched.Costs) sched.Scheduler { return s }}
	ctl := New(f, liveCosts, WithRetryDelay(retry))
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t1 := txn.New(1, []txn.Step{w(0, 1), w(1, 1)})
	done := make(chan error, 1)
	go func() {
		done <- ctl.Run(ctx, t1, func(step int, _ Progress) error {
			if step == 0 {
				time.Sleep(2 * retry) // the first wait's timer, if left running, fires now
			}
			return nil
		})
	}()
	next := func() answer {
		select {
		case a := <-s.log:
			return a
		case <-ctx.Done():
			t.Fatal("no scheduler answer before the deadline")
			return answer{}
		}
	}
	first := next()
	// t1 parks under the mutex that refused it, so this admission —
	// a wake event — finds it parked.
	t2 := txn.New(2, []txn.Step{w(2, 1)})
	if err := ctl.Admit(ctx, t2); err != nil {
		t.Fatal(err)
	}
	if a := next(); a.step != 0 || a.dec != sched.Granted || a.at.Sub(first.at) >= retry {
		t.Fatalf("step 0 re-decided %v after %v; want Granted by the wake event, before the %v timer",
			a.dec, a.at.Sub(first.at), retry)
	}
	second := next()
	resumed := next()
	if second.step != 1 || second.dec != sched.Delayed || resumed.step != 1 || resumed.dec != sched.Granted {
		t.Fatalf("step 1 answers %+v then %+v; want Delayed then Granted", second, resumed)
	}
	if waited := resumed.at.Sub(second.at); waited < retry {
		t.Errorf("the second Delayed wait ended after %v, before the %v retry delay: a stale tick of the first wait's timer", waited, retry)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := ctl.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

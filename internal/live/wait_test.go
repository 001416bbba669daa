package live

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// TestProgressNeverNeedsRetryDelay is the liveness half of the wait
// path's contract: every refusal is re-decided by an event — a commit, an
// abort, a granted admission, or the quiescence re-dispatch of waitLocked
// — never by the §3.2 timer. The paper's Pattern2 hot set at MPL 16 keeps
// every kind of refusal in play (Blocked, Delayed, refused admissions,
// spanning admissions with two shards); the retry delay is an hour, so a
// single refusal that only the timer would have re-decided wedges the cell
// into its deadline. No watchdog: nothing may depend on it either. Each
// cell ends in the contract certificate. Run with -race (`make verify`).
func TestProgressNeverNeedsRetryDelay(t *testing.T) {
	const clients, total = 16, 5000
	for _, f := range []sched.Factory{
		sched.ChainFactory(), sched.KWTPGFactory(2), sched.C2PLFactory(), sched.ASLFactory(),
	} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s/shards=%d", f.Label, shards)
			t.Run(name, func(t *testing.T) {
				h := modelcheck.NewHistory()
				ctl := New(f, liveCosts, WithShards(shards), WithRetryDelay(time.Hour), WithObserver(h))
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
						"repro: go test -race -count=1 -run 'TestProgressNeverNeedsRetryDelay/%s' ./internal/live/", n, total, name)
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
}

// TestInjectedRefusalNeedsNoTraffic: an injected admission refusal is a
// fault's latency, not a scheduler decision, so no event will ever answer
// it. One client whose every transaction is refused in a burst, with
// nothing else running to produce a wake event, must still finish.
func TestInjectedRefusalNeedsNoTraffic(t *testing.T) {
	inj, err := fault.New(1, fault.Config{AdmitRefusalRate: 1, AdmitRefusalBurst: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond), WithFaults(inj))
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for id := txn.ID(1); id <= 4; id++ {
		if err := ctl.Run(ctx, txn.New(id, []txn.Step{w(0, 1)}), nil); err != nil {
			t.Fatalf("%v: %v", id, err)
		}
	}
	if st := ctl.Stats(); st.Committed != 4 || st.Retries != 12 {
		t.Errorf("committed %d after %d retry waits, want 4 after 12 (a burst of 3 each)", st.Committed, st.Retries)
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

// BenchmarkLiveRunBatchHotSet is the batch path on the same hot set: one
// driver cutting the stream into 16-member batches for RunBatch, EPOCH
// (one batched admission each) beside CHAIN (its per-arrival fallback).
// One op is one committed transaction; ROADMAP item 2(f)'s windowed
// driver starts from this number.
func BenchmarkLiveRunBatchHotSet(b *testing.B) {
	const batch = 16
	for _, f := range []sched.Factory{sched.EpochFactory(), sched.ChainFactory()} {
		b.Run(f.Label, func(b *testing.B) {
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
			rng := rand.New(rand.NewSource(1))
			ctx := context.Background()
			work := func(tx *txn.T, step int, p Progress) error {
				p(tx.Steps[step].Cost)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				ts := make([]*txn.T, min(batch, b.N-done))
				for i := range ts {
					done++
					ts[i] = gen.Next(txn.ID(done), rng)
				}
				for _, err := range ctl.RunBatch(ctx, ts, work) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ctl.Stats().Retries)/float64(b.N), "waits/op")
		})
	}
}

package live

// Live storage battery (ISSUE PR 9): the heap-file engine under the
// sharded controller swarm — real goroutines, real page I/O, -race.
// Asserted invariants: pins drain to zero, the buffer-pool hit/miss
// counters agree between the store's own stats and the obs metrics,
// partition contents equal the pure function of the committed set, and
// a SIGKILL mid-flush (WAL + heap torn together) recovers to contents
// ≡ the durable committed set.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// TestChaosStorageLiveSwarm is the storage half of the live chaos
// battery: a sharded controller (PR 8's swarm shape) with storage, WAL,
// fault injection and an obs metrics sink, hammered by concurrent
// workers. Run under -race by `make verify`.
func TestChaosStorageLiveSwarm(t *testing.T) {
	const parts = 16
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj, err := fault.New(seed, fault.Config{AbortRate: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			hdir := t.TempDir()
			st, err := storage.Open(hdir, parts,
				storage.WithPageSize(1024), storage.WithPoolFrames(8), storage.WithNodes(4))
			if err != nil {
				t.Fatal(err)
			}
			wdir := t.TempDir()
			l, err := wal.Open(wdir, 1)
			if err != nil {
				t.Fatal(err)
			}
			metrics, h := obs.NewMetrics(), modelcheck.NewHistory()
			ctl := New(sched.C2PLFactory(), liveCosts,
				WithShards(4),
				WithRetryDelay(time.Millisecond),
				WithWALLog(l),
				WithStorage(st),
				WithObserver(obs.Multi(metrics, h)))

			ts := shardedWorkload(int64(seed), 48, parts)
			slow := slowSet(rand.New(rand.NewSource(-int64(seed))), parts, 0.1)
			crashes := rand.New(rand.NewSource(int64(seed)))
			var mu sync.Mutex
			committed := map[txn.ID]bool{}
			var wg sync.WaitGroup
			for _, tx := range ts {
				work := faultyWork(inj, tx, slow, crashStep(crashes, tx, 0.1), 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					err := ctl.Run(ctx, tx, work)
					switch {
					case err == nil:
						mu.Lock()
						committed[tx.ID] = true
						mu.Unlock()
					case errors.Is(err, errInjectedAbort), errors.Is(err, errInjectedCrash):
						// expected fault outcomes: effects must be dropped
					default:
						t.Errorf("txn %v: %v", tx.ID, err)
					}
				}()
			}
			wg.Wait()
			if err := ctl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := ctl.StorageErr(); err != nil {
				t.Fatalf("sticky storage error: %v", err)
			}
			ctl.Close()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Pool invariants after the storm: no pin leaked, and the
			// store's counters agree with what the obs pipeline recorded.
			if n := st.PinnedFrames(); n != 0 {
				t.Fatalf("%d frames still pinned after the swarm drained", n)
			}
			ps := st.Stats()
			sm := metrics.Sched(ctl.label)
			if sm == nil {
				t.Fatal("no metrics recorded for the controller's label")
			}
			if ps.Hits != sm.PoolHits || ps.Misses != sm.PoolMisses {
				t.Fatalf("pool counters diverge: store %d/%d hits/misses, metrics %d/%d",
					ps.Hits, ps.Misses, sm.PoolHits, sm.PoolMisses)
			}
			if ps.BytesRead != sm.BytesRead || ps.BytesWritten != sm.BytesWritten {
				t.Fatalf("byte counters diverge: store %d/%d read/written, metrics %d/%d",
					ps.BytesRead, ps.BytesWritten, sm.BytesRead, sm.BytesWritten)
			}
			if ps.Hits+ps.Misses == 0 && len(committed) > 0 {
				t.Fatal("swarm committed transactions without touching a page")
			}
			if got, want := sm.PoolHitRate(), ps.HitRate(); got != want {
				t.Fatalf("hit rate diverges: metrics %v, store %v", got, want)
			}

			// The contract (docs/ROBUSTNESS.md §10) — in particular contents
			// ≡ pure function of the committed set: aborted and crashed
			// transactions left no trace (no-steal).
			scans, err := wal.Scan(wdir)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := wal.Replay(scans, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: committed, Store: st}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStorageLiveKillRestartRecover is the live half of the torn-page
// battery: SIGKILL both durability streams mid-flush — the WAL loses
// its unsynced tail, the never-fsynced heap pages tear — then reopen the
// store, Recover over it, audit with modelcheck.VerifyRecovery, and
// require contents ≡ the durable committed set.
func TestStorageLiveKillRestartRecover(t *testing.T) {
	const parts = 8
	wdir, hdir := t.TempDir(), t.TempDir()
	l, err := wal.Open(wdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	sopts := []storage.Option{storage.WithPageSize(1024), storage.WithPoolFrames(8)}
	st, err := storage.Open(hdir, parts, sopts...)
	if err != nil {
		t.Fatal(err)
	}
	h := modelcheck.NewHistory()
	ctl := New(sched.KWTPGFactory(2), liveCosts,
		WithShards(2), WithRetryDelay(time.Millisecond), WithWALLog(l), WithStorage(st), WithObserver(h))

	ts := shardedWorkload(7, 32, parts)
	var mu sync.Mutex
	committed := map[txn.ID]bool{}
	var wg sync.WaitGroup
	for _, tx := range ts {
		tx := tx
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := ctl.Run(ctx, tx, func(step int, p Progress) error {
				p(1)
				return nil
			}); err == nil {
				mu.Lock()
				committed[tx.ID] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// SIGKILL mid-flush: both halves die with the same flush fraction.
	l.Crash(0.5)
	if err := st.Crash(0.5); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	st2, err := storage.Open(hdir, parts, sopts...)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// One call is the whole restart: the log replayed once, the store
	// redone by that replay, the log reopened at the cut.
	ctl2, rec, err := Recover(wdir, sched.KWTPGFactory(2), liveCosts, WithShards(2), WithStorage(st2))
	if err != nil {
		t.Fatal(err)
	}
	ctl2.Close()
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	// The kill came after every client had returned, so the recovered set
	// is exactly the acknowledged one (Killed stays false) and the contents
	// exactly its effects.
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: committed, Store: st2}); err != nil {
		t.Fatal(err)
	}
}

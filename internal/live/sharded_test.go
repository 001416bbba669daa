package live

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// shardedWorkload generates a reproducible mixed workload: n
// transactions of 1–3 distinct-partition steps over parts partitions,
// half writes — small enough footprints that most transactions land in
// one shard while a steady minority spans shards and exercises the
// atomic cross-shard admission path.
func shardedWorkload(seed int64, n, parts int) []*txn.T {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]*txn.T, n)
	for i := range ts {
		nsteps := 1 + rng.Intn(3)
		perm := rng.Perm(parts)
		steps := make([]txn.Step, nsteps)
		for j := range steps {
			mode := txn.Read
			if rng.Float64() < 0.5 {
				mode = txn.Write
			}
			steps[j] = txn.Step{Mode: mode, Part: txn.PartitionID(perm[j]), Cost: 1}
		}
		ts[i] = txn.New(txn.ID(i+1), steps)
	}
	return ts
}

// runCommitSet drives the workload through a controller with the given
// shard count on real goroutines, certifies the run and returns the set
// of transactions that committed.
func runCommitSet(t *testing.T, f sched.Factory, shards int, ts []*txn.T) map[txn.ID]bool {
	t.Helper()
	h := modelcheck.NewHistory()
	ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithShards(shards), WithObserver(h))
	defer ctl.Close()
	var mu sync.Mutex
	committed := make(map[txn.ID]bool, len(ts))
	var wg sync.WaitGroup
	for _, tx := range ts {
		tx := tx
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := ctl.Run(ctx, tx, func(step int, p Progress) error {
				p(1)
				return nil
			})
			if err != nil {
				t.Errorf("txn %v: %v", tx.ID, err)
				return
			}
			mu.Lock()
			committed[tx.ID] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctl.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := ctl.Stats()
	if st.Active != 0 {
		t.Errorf("%d transactions leaked", st.Active)
	}
	if st.Committed != uint64(len(committed)) {
		t.Errorf("stats committed %d, observed %d", st.Committed, len(committed))
	}
	if err := h.Certify(modelcheck.Evidence{Acked: committed}); err != nil {
		t.Errorf("%d shards: %v", shards, err)
	}
	return committed
}

// TestShardedDifferentialCommitSet is the tentpole's differential
// proof: for many seeds and every scheduler family, the sharded
// controller's committed set must equal the single-mutex controller's
// on the identical workload. Absent faults both must commit everything
// — so any divergence is a liveness failure (a cross-shard deadlock or
// a lost wakeup) or a safety failure caught by CheckInvariants. Run
// with -race (the Makefile verify line does).
func TestShardedDifferentialCommitSet(t *testing.T) {
	factories := []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	}
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for _, f := range factories {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				ts := shardedWorkload(int64(seed)+1, 24, 24)
				single := runCommitSet(t, f, 1, ts)
				sharded := runCommitSet(t, f, 8, ts)
				if len(single) != len(sharded) {
					t.Fatalf("seed %d: single-mutex committed %d, sharded committed %d",
						seed, len(single), len(sharded))
				}
				for id := range single {
					if !sharded[id] {
						t.Fatalf("seed %d: %v committed single-mutex but not sharded", seed, id)
					}
				}
				if t.Failed() {
					t.Fatalf("seed %d: divergence", seed)
				}
			}
		})
	}
}

// TestShardedSwarmRace hammers a sharded controller from many
// goroutines while asserting, inside the held locks, the property
// sharding must preserve: writers are exclusive and exclude readers on
// every partition, whichever shard owns it. It also checks that the
// observer pipeline saw events tagged with a non-default shard. Run
// with -race.
func TestShardedSwarmRace(t *testing.T) {
	const parts = 32
	var writers, readers [parts]int32
	ring, h := obs.NewRing(4096), modelcheck.NewHistory()
	ctl := New(sched.C2PLFactory(), liveCosts,
		WithShards(8),
		WithRetryDelay(time.Millisecond),
		WithObserver(obs.Multi(ring, h)))
	defer ctl.Close()
	if got := ctl.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	ts := shardedWorkload(99, 64, parts)
	var wg sync.WaitGroup
	for _, tx := range ts {
		tx := tx
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := ctl.Run(ctx, tx, func(step int, p Progress) error {
				part := tx.Steps[step].Part
				if tx.Steps[step].Mode == txn.Write {
					if atomic.AddInt32(&writers[part], 1) != 1 || atomic.LoadInt32(&readers[part]) != 0 {
						t.Errorf("%v: writer on %v not exclusive", tx.ID, part)
					}
					atomic.AddInt32(&writers[part], -1)
				} else {
					atomic.AddInt32(&readers[part], 1)
					if atomic.LoadInt32(&writers[part]) != 0 {
						t.Errorf("%v: reader on %v overlaps a writer", tx.ID, part)
					}
					atomic.AddInt32(&readers[part], -1)
				}
				p(1)
				return nil
			})
			if err != nil {
				t.Errorf("txn %v: %v", tx.ID, err)
			}
		}()
	}
	wg.Wait()
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.Certify(modelcheck.Evidence{}); err != nil {
		t.Fatal(err)
	}
	tagged := false
	for _, e := range ring.Events() {
		if e.Shard > 0 {
			tagged = true
			break
		}
	}
	if !tagged {
		t.Error("no event carried a non-default shard tag")
	}
}

// TestShardedChaosLive is the sharded chaos battery: chaosSwarm's full
// fault mix against four shards, over footprints that routinely span
// them.
func TestShardedChaosLive(t *testing.T) {
	chaosSwarm(t, 8, 3, func(*testing.T, uint64, Stats) {}, WithShards(4))
}

// TestShardedObjectDoneRoutesToOwner: the §3.1 weight message of a
// spanning transaction lands on the WTPG of the shard owning its current
// step's partition, and leaves the home shard's projection alone.
func TestShardedObjectDoneRoutesToOwner(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		ctl := New(sched.KWTPGFactory(2), liveCosts, WithShards(4))
		defer ctl.Close()
		// Two partitions on different shards; the first step's is the home.
		homePart, ownerPart := txn.PartitionID(0), txn.PartitionID(1)
		for ctl.shardOf(ownerPart) <= ctl.shardOf(homePart) {
			ownerPart++
		}
		home, owner := ctl.shards[ctl.shardOf(homePart)], ctl.shards[ctl.shardOf(ownerPart)]
		tx := txn.New(1, []txn.Step{w(homePart, 5), w(ownerPart, 5)})
		ctx := context.Background()
		if err := ctl.Admit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		for step := range tx.Steps {
			if err := ctl.Acquire(ctx, tx, step); err != nil {
				t.Fatal(err)
			}
		}
		w0 := func(sh *lshard) float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return sh.sch.(sched.GraphHolder).Graph().W0(tx.ID)
		}
		homeBefore, ownerBefore := w0(home), w0(owner)
		ctl.ObjectDone(tx, 3)
		if got := w0(owner); got != ownerBefore-3 {
			t.Errorf("owner shard W0 %g → %g, want %g", ownerBefore, got, ownerBefore-3)
		}
		if got := w0(home); got != homeBefore {
			t.Errorf("home shard W0 %g → %g, want it untouched", homeBefore, got)
		}
		if err := ctl.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpanningDecisionEventsSayWhatWasLocked: a spanning transaction is
// decided on per-shard projections, so a decision event's Step indexes
// the projection (here 0 for both steps) while the driver's request
// event carries the transaction's own index — Part and Write are exact
// on both, which is what lets a trace consumer do without a transaction
// table.
func TestSpanningDecisionEventsSayWhatWasLocked(t *testing.T) {
	ring := obs.NewRing(64)
	ctl := New(sched.C2PLFactory(), liveCosts, WithShards(2), WithObserver(ring))
	defer ctl.Close()
	readPart, writePart := txn.PartitionID(0), txn.PartitionID(1)
	for ctl.shardOf(writePart) == ctl.shardOf(readPart) {
		writePart++
	}
	tx := txn.New(1, []txn.Step{r(readPart, 1), w(writePart, 1)})
	if err := ctl.Run(context.Background(), tx, nil); err != nil {
		t.Fatal(err)
	}
	type locked struct {
		kind  obs.Kind
		part  txn.PartitionID
		step  int
		write bool
	}
	got := map[locked]bool{}
	for _, e := range ring.Events() {
		if e.Txn == tx.ID && (e.Kind == obs.KindRequest || (e.Kind == obs.KindDecision && e.Op == "request")) {
			got[locked{e.Kind, e.Part, e.Step, e.Write}] = true
		}
	}
	want := map[locked]bool{
		{obs.KindDecision, readPart, 0, false}: true,
		{obs.KindDecision, writePart, 0, true}: true,
		{obs.KindRequest, readPart, 0, false}:  true,
		{obs.KindRequest, writePart, 1, true}:  true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("request and decision events say %v was locked, want %v", got, want)
	}
}

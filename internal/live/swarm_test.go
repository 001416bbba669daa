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

// mixedWorkload generates a reproducible mixed workload: n transactions
// of 1–3 distinct-partition steps over parts partitions, half writes.
func mixedWorkload(seed int64, n, parts int) []*txn.T {
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

// TestMixedWorkloadCommitsAll: for many seeds and every scheduler family,
// the mixed workload run on real goroutines commits every transaction —
// absent faults, a transaction that does not is a liveness failure (a
// lost wakeup) — with the lock table clean, the stats balanced and the
// contract certificate accepting the trace. Run with -race (the Makefile
// verify line does).
func TestMixedWorkloadCommitsAll(t *testing.T) {
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
				ts := mixedWorkload(int64(seed)+1, 24, 24)
				h := modelcheck.NewHistory()
				ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithObserver(h))
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
							t.Errorf("seed %d: txn %v: %v", seed, tx.ID, err)
							return
						}
						mu.Lock()
						committed[tx.ID] = true
						mu.Unlock()
					}()
				}
				wg.Wait()
				if err := ctl.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				st := ctl.Stats()
				if st.Active != 0 {
					t.Fatalf("seed %d: %d transactions leaked", seed, st.Active)
				}
				if len(committed) != len(ts) || st.Committed != uint64(len(committed)) {
					t.Fatalf("seed %d: committed %d of %d, stats say %d", seed, len(committed), len(ts), st.Committed)
				}
				if err := h.Certify(modelcheck.Evidence{Acked: committed}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				ctl.Close()
			}
		})
	}
}

// TestSwarmWriterExclusion hammers the controller from many goroutines
// while asserting, inside the held locks, that writers are exclusive and
// exclude readers on every partition. Run with -race.
func TestSwarmWriterExclusion(t *testing.T) {
	const parts = 32
	var writers, readers [parts]int32
	h := modelcheck.NewHistory()
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond), WithObserver(h))
	defer ctl.Close()
	ts := mixedWorkload(99, 64, parts)
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
}

// TestObjectDoneLowersWeight: the §3.1 weight message of an admitted
// transaction lands on its WTPG node.
func TestObjectDoneLowersWeight(t *testing.T) {
	ctl := New(sched.KWTPGFactory(2), liveCosts)
	defer ctl.Close()
	tx := txn.New(1, []txn.Step{w(0, 5), w(1, 5)})
	ctx := context.Background()
	if err := ctl.Admit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	for step := range tx.Steps {
		if err := ctl.Acquire(ctx, tx, step); err != nil {
			t.Fatal(err)
		}
	}
	w0 := func() float64 {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		return ctl.sch.(sched.GraphHolder).Graph().W0(tx.ID)
	}
	before := w0()
	ctl.ObjectDone(tx, 3)
	if got := w0(); got != before-3 {
		t.Errorf("W0 %g → %g, want %g", before, got, before-3)
	}
	if err := ctl.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionEventsSayWhatWasLocked: a request event and the decision
// event answering it carry the transaction's step index, and Part and
// Write are exact on both, which is what lets a trace consumer do
// without a transaction table.
func TestDecisionEventsSayWhatWasLocked(t *testing.T) {
	ring := obs.NewRing(64)
	ctl := New(sched.C2PLFactory(), liveCosts, WithObserver(ring))
	defer ctl.Close()
	readPart, writePart := txn.PartitionID(0), txn.PartitionID(1)
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
		{obs.KindDecision, writePart, 1, true}: true,
		{obs.KindRequest, readPart, 0, false}:  true,
		{obs.KindRequest, writePart, 1, true}:  true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("request and decision events say %v was locked, want %v", got, want)
	}
}

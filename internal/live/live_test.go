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
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

var liveCosts = sched.Costs{KeepTime: 50}

func r(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Read, Part: p, Cost: c} }
func w(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Write, Part: p, Cost: c} }

// observerFunc adapts a function to obs.Observer.
type observerFunc func(obs.Event)

func (f observerFunc) Observe(e obs.Event) { f(e) }

// TestMutualExclusion runs many goroutines writing the same partition;
// the step work asserts it is never concurrent with another writer.
func TestMutualExclusion(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			var inside int32
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for i := 0; i < 16; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := txn.New(txn.ID(i+1), []txn.Step{w(0, 1)})
					err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
						if atomic.AddInt32(&inside, 1) != 1 {
							return errors.New("two writers inside the critical section")
						}
						time.Sleep(200 * time.Microsecond)
						atomic.AddInt32(&inside, -1)
						p(1)
						return nil
					})
					if err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := ctl.Stats()
			if st.Admitted != 16 || st.Committed != 16 || st.Aborted != 0 || st.Active != 0 {
				t.Errorf("stats %+v, want 16 admitted/committed, none aborted or active", st)
			}
		})
	}
}

// TestReadersShare: concurrent readers of one partition overlap (at
// least sometimes), proving S locks are shared in the live path.
func TestReadersShare(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	var inside, maxInside int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i+1), []txn.Step{r(0, 1)})
			_ = ctl.Run(context.Background(), tx, func(int, Progress) error {
				n := atomic.AddInt32(&inside, 1)
				mu.Lock()
				if n > maxInside {
					maxInside = n
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				atomic.AddInt32(&inside, -1)
				return nil
			})
		}()
	}
	wg.Wait()
	if maxInside < 2 {
		t.Errorf("readers never overlapped (max concurrency %d)", maxInside)
	}
}

// TestConflictSerializability certifies the grant order of a random
// mixed workload, for every scheduler: a grant is a Decision event with
// op=request, decision=granted, emitted under the controller's mutex — so in
// exact decision order.
func TestConflictSerializability(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			h := modelcheck.NewHistory()
			var grants atomic.Int64
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithObserver(observerFunc(func(e obs.Event) {
				if e.Kind == obs.KindDecision && e.Op == "request" && e.Decision == "granted" {
					grants.Add(1)
				}
				h.Observe(e)
			})))
			defer ctl.Close()
			acked := map[txn.ID]bool{}
			var wg sync.WaitGroup
			for i := 0; i < 24; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				var steps []txn.Step
				for s := 0; s < 1+rng.Intn(3); s++ {
					steps = append(steps, txn.Step{
						Mode: txn.Mode(rng.Intn(2)),
						Part: txn.PartitionID(rng.Intn(4)),
						Cost: 1,
					})
				}
				tx := txn.New(txn.ID(i+1), steps)
				acked[tx.ID] = true
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ctl.Run(context.Background(), tx, func(int, Progress) error {
						time.Sleep(100 * time.Microsecond)
						return nil
					}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if grants.Load() == 0 {
				t.Fatal("observer saw no granted requests")
			}
			if err := h.Certify(modelcheck.Evidence{Acked: acked}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkErrorReleasesLocks: a failing step aborts the transaction and
// frees its locks so others proceed.
func TestWorkErrorReleasesLocks(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	boom := errors.New("boom")
	tx1 := txn.New(1, []txn.Step{w(0, 1), w(1, 1)})
	err := ctl.Run(context.Background(), tx1, func(step int, _ Progress) error {
		if step == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The partitions must be free now.
	done := make(chan error, 1)
	go func() {
		tx2 := txn.New(2, []txn.Step{w(0, 1), w(1, 1)})
		done <- ctl.Run(context.Background(), tx2, nil)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("locks leaked by aborted transaction")
	}
}

// TestContextCancellationWhileBlocked: a blocked transaction honours
// cancellation and releases whatever it held.
func TestContextCancellationWhileBlocked(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	hold := make(chan struct{})
	holderIn := make(chan struct{})
	go func() {
		tx := txn.New(1, []txn.Step{w(0, 1)})
		_ = ctl.Run(context.Background(), tx, func(int, Progress) error {
			close(holderIn)
			<-hold
			return nil
		})
	}()
	<-holderIn
	ctx, cancel := context.WithCancel(context.Background())
	blockedErr := make(chan error, 1)
	go func() {
		tx := txn.New(2, []txn.Step{w(0, 1)})
		blockedErr <- ctl.Run(ctx, tx, nil)
	}()
	time.Sleep(10 * time.Millisecond) // let it block
	cancel()
	select {
	case err := <-blockedErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation ignored")
	}
	close(hold)
}

// TestClose: Close unblocks waiters with ErrClosed and poisons new work.
func TestClose(t *testing.T) {
	ctl := New(sched.ASLFactory(), liveCosts, WithRetryDelay(time.Hour))
	started := make(chan struct{})
	blocked := make(chan error, 1)
	go func() {
		tx := txn.New(1, []txn.Step{w(0, 1)})
		_ = ctl.Run(context.Background(), tx, func(int, Progress) error {
			close(started)
			time.Sleep(50 * time.Millisecond)
			return nil
		})
	}()
	<-started
	go func() {
		tx := txn.New(2, []txn.Step{w(0, 1)})
		blocked <- ctl.Run(context.Background(), tx, nil)
	}()
	time.Sleep(5 * time.Millisecond)
	ctl.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock waiter")
	}
	if err := ctl.Run(context.Background(), txn.New(3, []txn.Step{r(0, 1)}), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Run = %v", err)
	}
}

// TestThroughputAcrossPartitions sanity-checks parallelism: disjoint
// transactions complete concurrently (wall time well under serial sum).
func TestThroughputAcrossPartitions(t *testing.T) {
	ctl := New(sched.KWTPGFactory(2), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	const n = 8
	const stepSleep = 20 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i+1), []txn.Step{w(txn.PartitionID(i), 1)})
			if err := ctl.Run(context.Background(), tx, func(int, Progress) error {
				time.Sleep(stepSleep)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el > time.Duration(n)*stepSleep {
		t.Errorf("disjoint transactions serialized: %v for %d × %v", el, n, stepSleep)
	}
}

func ExampleController() {
	ctl := New(sched.ChainFactory(), sched.Costs{KeepTime: 100})
	defer ctl.Close()
	tx := txn.New(1, []txn.Step{
		{Mode: txn.Read, Part: 0, Cost: 1},
		{Mode: txn.Write, Part: 1, Cost: 1},
	})
	err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
		// ... do the step's real work here ...
		p(1) // report one processed object
		return nil
	})
	fmt.Println(err)
	// Output:
	// <nil>
}

package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// TestAbortReleasesLocksAndUnblocksWaiters admits a holder on every
// partition, parks one waiter per partition behind it, aborts the
// holder, and requires every waiter to proceed to commit. Run with
// -race; the waiters block and wake concurrently.
func TestAbortReleasesLocksAndUnblocksWaiters(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond))
			defer ctl.Close()
			const parts = 4
			steps := make([]txn.Step, parts)
			for i := range steps {
				steps[i] = w(txn.PartitionID(i), 1)
			}
			holder := txn.New(1, steps)
			ctx := context.Background()
			if err := ctl.Admit(ctx, holder); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < parts; step++ {
				if err := ctl.Acquire(ctx, holder, step); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, parts)
			for i := 0; i < parts; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := txn.New(txn.ID(10+i), []txn.Step{w(txn.PartitionID(i), 1)})
					wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
					defer cancel()
					if err := ctl.Run(wctx, tx, nil); err != nil {
						errs <- fmt.Errorf("waiter %d: %w", i, err)
					}
				}()
			}
			// Let the waiters pile up behind the holder's exclusive locks,
			// then abort it.
			time.Sleep(20 * time.Millisecond)
			if err := ctl.Abort(holder); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := ctl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := ctl.Stats()
			if st.Aborted != 1 || st.Committed != uint64(parts) || st.Active != 0 {
				t.Fatalf("stats after abort: %+v", st)
			}
		})
	}
}

// TestFinishErrors locks in the error contract of Acquire/Commit/Abort:
// a transaction the controller never admitted (or already finished)
// cannot be finished, and asking a lock for it fails at once with the
// same error — no retry wait, no phantom grant — under every family.
// ObjectDone on such a transaction is a no-op. A nil transaction, and a
// step the transaction does not declare, are answered with an error (a
// no-op for ObjectDone), never a panic.
func TestFinishErrors(t *testing.T) {
	ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	ctx := context.Background()
	one := txn.New(1, []txn.Step{w(0, 1)})
	for _, c := range []struct {
		name string
		call func() error
		want string // "" = no error
	}{
		{"Run(nil)", func() error { return ctl.Run(ctx, nil, nil) }, errNilTxn.Error()},
		{"Admit(nil)", func() error { return ctl.Admit(ctx, nil) }, errNilTxn.Error()},
		{"Acquire(nil)", func() error { return ctl.Acquire(ctx, nil, 0) }, errNilTxn.Error()},
		{"ObjectDone(nil)", func() error { ctl.ObjectDone(nil, 1); return nil }, ""},
		{"Commit(nil)", func() error { return ctl.Commit(nil) }, errNilTxn.Error()},
		{"Abort(nil)", func() error { return ctl.Abort(nil) }, errNilTxn.Error()},
		{"Acquire(step 1 of 1)", func() error { return ctl.Acquire(ctx, one, 1) }, "live: T1 has no step 1"},
		{"Acquire(step -1)", func() error { return ctl.Acquire(ctx, one, -1) }, "live: T1 has no step -1"},
	} {
		got := ""
		if err := c.call(); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
	if st := ctl.Stats(); st != (Stats{}) {
		t.Errorf("rejected calls moved the counters: %+v", st)
	}

	for _, f := range []sched.Factory{
		sched.C2PLFactory(), sched.KWTPGFactory(2), sched.ChainFactory(), sched.ASLFactory(),
	} {
		t.Run(f.Label, func(t *testing.T) {
			ring := obs.NewRing(64)
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithObserver(ring))
			defer ctl.Close()
			tx := txn.New(1, []txn.Step{w(0, 1)})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// unadmitted asserts Acquire and ObjectDone treat tx as finish
			// does, leaving the counters and the trace alone.
			unadmitted := func(when string, finishErr error) {
				t.Helper()
				before, events := ctl.Stats(), len(ring.Events())
				err := ctl.Acquire(ctx, tx, 0)
				if err == nil || err.Error() != finishErr.Error() {
					t.Errorf("Acquire %s returned %v, want %v", when, err, finishErr)
				}
				ctl.ObjectDone(tx, 1)
				if after := ctl.Stats(); after != before {
					t.Errorf("Acquire/ObjectDone %s moved the counters: %+v → %+v", when, before, after)
				}
				if n := len(ring.Events()); n != events {
					t.Errorf("Acquire/ObjectDone %s emitted %d events", when, n-events)
				}
			}
			err := ctl.Commit(tx)
			if err == nil || !strings.Contains(err.Error(), "is not an admitted transaction") {
				t.Fatalf("commit of a never-admitted transaction returned %v", err)
			}
			unadmitted("before Admit", err)
			if err := ctl.Admit(ctx, tx); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Acquire(ctx, tx, 0); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Commit(tx); err != nil {
				t.Fatal(err)
			}
			err = ctl.Abort(tx)
			if err == nil {
				t.Fatal("double finish succeeded")
			}
			unadmitted("after Commit", err)
		})
	}
}

// TestRunRefusesBadDemands: a one-step transaction whose cost is
// negative, NaN or infinite is refused by Run at once under C2PL, CHAIN
// and K2 — nothing admitted, nothing traced, no counter moved — where the
// scheduler, which trusts its demands, would have refused it until the
// context ended. A valid transaction runs afterwards, and ObjectDone with
// a count that is not a txn.ValidDemand leaves w(T0→Ti) alone (two counts
// of -1e308 would raise it to +Inf, an input CHAIN's plan cannot take).
func TestRunRefusesBadDemands(t *testing.T) {
	for _, f := range []sched.Factory{sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2)} {
		t.Run(f.Label, func(t *testing.T) {
			ring := obs.NewRing(64)
			ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond), WithObserver(ring))
			defer ctl.Close()
			for i, cost := range []float64{-1, math.NaN(), math.Inf(1)} {
				tx := txn.New(txn.ID(i+1), []txn.Step{w(0, cost)})
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := ctl.Run(ctx, tx, nil)
				cancel()
				if err == nil || errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("Run(%v) = %v, want a refusal at once", tx, err)
				}
			}
			if st := ctl.Stats(); st != (Stats{}) {
				t.Errorf("refused transactions moved the counters: %+v", st)
			}
			if n := len(ring.Events()); n != 0 {
				t.Errorf("refused transactions emitted %d events", n)
			}
			ctx := context.Background()
			tx := txn.New(9, []txn.Step{w(0, 2)})
			if err := ctl.Admit(ctx, tx); err != nil {
				t.Fatal(err)
			}
			for _, objects := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), -1e308, -1e308} {
				ctl.ObjectDone(tx, objects)
			}
			if w0 := ctl.sch.(sched.GraphHolder).Graph().W0(tx.ID); w0 != 2 {
				t.Errorf("w(T0→%v) = %g after bad ObjectDone counts, want 2", tx.ID, w0)
			}
			if err := ctl.Acquire(ctx, tx, 0); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Commit(tx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChainAtMaxDemand admits two CHAIN transactions that each write c
// objects of partition 0. At c = 1e308 or 9e307 each demand is finite but
// the chain's path length is +Inf: Admit must refuse them, where the
// optimizer would have failed under the controller's lock. At
// c = txn.MaxDemand both are admitted, the first write is planned over the
// two-node chain, and both commit.
func TestChainAtMaxDemand(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, c := range []float64{1e308, 9e307} {
		ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
		if err := ctl.Admit(ctx, txn.New(1, []txn.Step{w(0, c)})); err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("c = %g: Admit = %v, want a refusal at once", c, err)
		}
		ctl.Close()
	}
	ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	t1 := txn.New(1, []txn.Step{w(0, txn.MaxDemand)})
	t2 := txn.New(2, []txn.Step{w(0, txn.MaxDemand)})
	for _, tx := range []*txn.T{t1, t2} {
		if err := ctl.Admit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range []*txn.T{t1, t2} {
		if err := ctl.Acquire(ctx, tx, 0); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAbortWhileParkedInAcquire finishes a transaction from another
// goroutine while its own is parked in Acquire: the parked call must
// wake to the not-admitted error, and the record it still points at
// must not be handed to the next admission while it does. Run with
// -race.
func TestAbortWhileParkedInAcquire(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Hour))
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	holder := txn.New(1, []txn.Step{w(0, 1)})
	parked := txn.New(2, []txn.Step{w(0, 1)})
	for _, tx := range []*txn.T{holder, parked} {
		if err := ctl.Admit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Acquire(ctx, holder, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ctl.Acquire(ctx, parked, 0) }()
	for ctl.Stats().Retries == 0 { // parked: its refusal registered a retry wait
		runtime.Gosched()
	}
	if err := ctl.Abort(parked); err != nil {
		t.Fatal(err)
	}
	// The abort's broadcast wakes the parked Acquire; race it with an
	// admission that would reuse a recycled record.
	next := txn.New(3, []txn.Step{w(1, 1)})
	if err := ctl.Run(ctx, next, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "is not an admitted transaction") {
		t.Fatalf("parked Acquire returned %v after a concurrent Abort", err)
	}
	if err := ctl.Commit(holder); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Stats(); st.Active != 0 || st.Committed != 2 || st.Aborted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRunReturnsCtxErrPromptly parks a transaction behind a huge retry
// delay (so only the broadcast or ctx can wake it), cancels the
// context, and requires Run to return ctx.Err() well before the delay.
// The waiter already holds a granted lock on a second partition: the
// cancellation is the one way out of a wait whose holder's work never
// returns, so it must release that lock too — a third transaction takes
// the partition without waiting, and the stuck holder still commits.
func TestRunReturnsCtxErrPromptly(t *testing.T) {
	ctl := New(sched.C2PLFactory(), liveCosts, WithRetryDelay(time.Hour))
	defer ctl.Close()
	ctx := context.Background()
	holder := txn.New(1, []txn.Step{w(0, 1)})
	if err := ctl.Admit(ctx, holder); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Acquire(ctx, holder, 0); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		done <- ctl.Run(cctx, txn.New(2, []txn.Step{w(1, 1), w(0, 1)}), nil)
	}()
	// Wait until T2 holds P1 and is parked on the held P0.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if st := ctl.Stats(); st.Granted == 2 && st.Retries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("T2 never parked: %+v", ctl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("Run took %v to notice cancellation", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after cancellation")
	}
	st := ctl.Stats()
	if st.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1 (the cancelled waiter)", st.Aborted)
	}
	// P1 is free again: a third transaction takes it without a retry wait.
	tctx, tcancel := context.WithTimeout(ctx, 5*time.Second)
	defer tcancel()
	if err := ctl.Run(tctx, txn.New(3, []txn.Step{w(1, 1)}), nil); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Stats().Retries; got != st.Retries {
		t.Fatalf("T3 waited for P1: retries %d → %d", st.Retries, got)
	}
	if err := ctl.Commit(holder); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryDelayStillCompletes exercises the fixed-delay retry path
// under contention with a delay far below the default: correctness must
// not depend on the delay.
func TestRetryDelayStillCompletes(t *testing.T) {
	ctl := New(sched.KWTPGFactory(2), liveCosts,
		WithRetryDelay(200*time.Microsecond))
	defer ctl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := txn.New(txn.ID(i+1), []txn.Step{w(0, 1), w(1, 1)})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := ctl.Run(ctx, tx, func(step int, p Progress) error {
				p(1)
				return nil
			}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := ctl.Stats(); st.Committed != 12 {
		t.Fatalf("committed %d, want 12", st.Committed)
	}
}

// errInjectedAbort is what faultyWork returns at the injector's abort
// point, errInjectedCrash what it panics with.
var (
	errInjectedAbort = errors.New("injected abort")
	errInjectedCrash = errors.New("injected crash")
)

// faultyWork is a chaos battery's work callback for tx, injecting faults
// through Run's public API the way a caller's own code fails: each step
// sleeps a millisecond on a partition in slow, panics with
// errInjectedCrash at panicStep (−1: never), reports objects one at a
// time and returns errInjectedAbort once inj.AbortAt's point is reached.
func faultyWork(inj *fault.Injector, tx *txn.T, slow []bool, panicStep, objects int) func(int, Progress) error {
	abortAt, hasAbort := inj.AbortAt(tx)
	processed := 0.0
	return func(step int, p Progress) error {
		if slow[tx.Steps[step].Part] {
			time.Sleep(time.Millisecond)
		}
		if step == panicStep {
			panic(fmt.Errorf("%w: %v step %d", errInjectedCrash, tx.ID, step))
		}
		for range objects {
			p(1)
			processed++
		}
		if hasAbort && processed >= abortAt {
			return fmt.Errorf("%w: %v after %g objects", errInjectedAbort, tx.ID, processed)
		}
		return nil
	}
}

// crashStep is a chaos battery's own seeded choice of the step whose work
// panics: with probability rate, a uniform step of tx; −1 otherwise.
func crashStep(rng *rand.Rand, tx *txn.T, rate float64) int {
	if rng.Float64() < rate {
		return rng.Intn(len(tx.Steps))
	}
	return -1
}

// slowSet is a chaos battery's own seeded choice of the partitions whose
// work runs slow: each of parts partitions with probability rate.
func slowSet(rng *rand.Rand, parts int, rate float64) []bool {
	slow := make([]bool, parts)
	for p := range slow {
		slow[p] = rng.Float64() < rate
	}
	return slow
}

// chaosSwarm runs the live chaos mix on every scheduler family: per seed,
// 24 two-step writers over parts partitions (steps stride apart) under
// injected aborts, crashes (recovered panics) and slow partitions
// (slowSet).
// Every transaction must finish (commit or injected
// fault), the lock table end clean, the stats balance and the contract
// certificate (docs/ROBUSTNESS.md §10) accept the trace; check sees each
// seed's final stats. Run with -race (`make verify`).
func chaosSwarm(t *testing.T, parts, stride int, check func(t *testing.T, seed uint64, st Stats), opts ...Option) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				inj, err := fault.New(seed, fault.Config{AbortRate: 0.25})
				if err != nil {
					t.Fatal(err)
				}
				slow := slowSet(rand.New(rand.NewSource(-int64(seed))), parts, 0.25)
				crashes := rand.New(rand.NewSource(int64(seed)))
				h := modelcheck.NewHistory()
				ctl := New(f, liveCosts, append([]Option{
					WithRetryDelay(time.Millisecond),
					WithObserver(h)}, opts...)...)
				const workers = 24
				var mu sync.Mutex
				acked := map[txn.ID]bool{}
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for i := 0; i < workers; i++ {
					tx := txn.New(txn.ID(seed*1000)+txn.ID(i+1), []txn.Step{
						w(txn.PartitionID(i%parts), 2),
						w(txn.PartitionID((i+stride)%parts), 2),
					})
					work := faultyWork(inj, tx, slow, crashStep(crashes, tx, 0.15), 2)
					wg.Add(1)
					go func() {
						defer wg.Done()
						ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
						defer cancel()
						err := ctl.Run(ctx, tx, work)
						switch {
						case err == nil:
							mu.Lock()
							acked[tx.ID] = true
							mu.Unlock()
						case errors.Is(err, errInjectedAbort),
							errors.Is(err, errInjectedCrash):
							// expected fault outcomes
						default:
							errs <- fmt.Errorf("%v: %w", tx.ID, err)
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				if err := ctl.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				st := ctl.Stats()
				if st.Active != 0 {
					t.Fatalf("seed %d: %d transactions leaked", seed, st.Active)
				}
				if st.Committed+st.Aborted != st.Admitted {
					t.Fatalf("seed %d: admitted %d != committed %d + aborted %d",
						seed, st.Admitted, st.Committed, st.Aborted)
				}
				if err := h.Certify(modelcheck.Evidence{Acked: acked}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				check(t, seed, st)
				ctl.Close()
			}
		})
	}
}

// TestLiveChaos is the live half of the chaos suite: chaosSwarm on four
// partitions with neighbouring steps, which must also have injected
// aborts to recover from.
func TestLiveChaos(t *testing.T) {
	chaosSwarm(t, 4, 1, func(t *testing.T, seed uint64, st Stats) {
		if st.Aborted == 0 {
			t.Errorf("seed %d: chaos run injected no aborts", seed)
		}
	})
}

// TestLiveChaosSpread is chaosSwarm's fault mix over eight partitions
// with steps three apart: writers contend on more partitions at once.
func TestLiveChaosSpread(t *testing.T) {
	chaosSwarm(t, 8, 3, func(*testing.T, uint64, Stats) {})
}

// TestPanicInWorkIsRecovered locks in the panic-recovery contract: a
// panicking step aborts its transaction, returns the panic as an
// error, and leaves the controller fully usable.
func TestPanicInWorkIsRecovered(t *testing.T) {
	ctl := New(sched.ChainFactory(), liveCosts, WithRetryDelay(time.Millisecond))
	defer ctl.Close()
	ctx := context.Background()
	err := ctl.Run(ctx, txn.New(1, []txn.Step{w(0, 1)}), func(step int, p Progress) error {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking work returned nil")
	}
	st := ctl.Stats()
	if st.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", st.Aborted)
	}
	// The partition is free again.
	if err := ctl.Run(ctx, txn.New(2, []txn.Step{w(0, 1)}), nil); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// panicking wraps a scheduler: the method named by at panics at its k-th
// call. The controller calls it under its mutex, so the count needs no
// lock.
type panicking struct {
	sched.Scheduler
	at    string
	k     int
	calls *int
}

func (p panicking) due(method string) {
	if method != p.at {
		return
	}
	if *p.calls++; *p.calls == p.k {
		panic("scheduler bug in " + method)
	}
}

func (p panicking) Admit(t *txn.T, now event.Time) sched.Outcome {
	p.due("Admit")
	return p.Scheduler.Admit(t, now)
}

func (p panicking) Request(t *txn.T, step int, now event.Time) sched.Outcome {
	p.due("Request")
	return p.Scheduler.Request(t, step, now)
}

func (p panicking) ObjectDone(t *txn.T, objects float64, now event.Time) {
	p.due("ObjectDone")
	p.Scheduler.ObjectDone(t, objects, now)
}

func (p panicking) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	p.due("Commit")
	return p.Scheduler.Commit(t, now)
}

func (p panicking) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	p.due("Abort")
	return p.Scheduler.Abort(t, now)
}

// panicAt is a factory of f's schedulers whose method at panics at its
// k-th call.
func panicAt(f sched.Factory, at string, k int) sched.Factory {
	return sched.Factory{Label: f.Label, New: func(c sched.Costs) sched.Scheduler {
		return panicking{f.New(c), at, k, new(int)}
	}}
}

// TestSchedulerPanicReleasesMutex: a scheduler that panics under the
// controller's mutex — in Admit, Request, ObjectDone or Commit — must
// neither leave the mutex locked nor leave the controller running on a
// scheduler in an unknown state. The call that met the panic returns an
// error naming it (a Commit's says the commit is in doubt: with a log its
// record was appended), a transaction parked behind the panicking one
// wakes and fails with it, a later Run on the same partition fails with
// it at once, and Stats and Close return — each within a deadline.
func TestSchedulerPanicReleasesMutex(t *testing.T) {
	within := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			f()
		}()
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("%s panicked: %v", what, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s after the scheduler's panic", what)
		}
	}
	for _, at := range []string{"Admit", "Request", "ObjectDone", "Commit"} {
		t.Run(at, func(t *testing.T) {
			f := panicAt(sched.C2PLFactory(), at, 1)
			l, err := wal.Open(t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ctl := New(f, liveCosts, WithWALLog(l))
			ctx := context.Background()
			want := "panicked: scheduler bug in " + at
			named := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err %v; want one naming %q", what, err, want)
				}
			}
			t1 := txn.New(1, []txn.Step{w(0, 1)})
			switch at {
			case "Admit", "Request":
				within(t, "Run", func() { err = ctl.Run(ctx, t1, nil) })
				named("Run", err)
			default:
				// t1 holds partition 0 and t2 parks behind it before the
				// panic.
				if err := ctl.Admit(ctx, t1); err != nil {
					t.Fatal(err)
				}
				if err := ctl.Acquire(ctx, t1, 0); err != nil {
					t.Fatal(err)
				}
				parked := make(chan error, 1)
				go func() { parked <- ctl.Run(ctx, txn.New(2, []txn.Step{w(0, 1)}), nil) }()
				for ctl.Stats().Retries == 0 {
					time.Sleep(time.Millisecond)
				}
				if at == "ObjectDone" {
					within(t, "ObjectDone", func() { ctl.ObjectDone(t1, 1) })
				}
				within(t, "Commit", func() { err = ctl.Commit(t1) })
				named("Commit", err)
				if in := strings.Contains(err.Error(), "commit in doubt"); in != (at == "Commit") {
					t.Fatalf("Commit: err %v; in doubt exactly when the scheduler's Commit panicked", err)
				}
				within(t, "the parked Run", func() { err = <-parked })
				named("the parked Run", err)
			}
			within(t, "a later Run", func() { err = ctl.Run(ctx, txn.New(3, []txn.Step{w(0, 1)}), nil) })
			named("a later Run", err)
			if err := ctl.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants passed a controller whose scheduler panicked")
			}
			within(t, "Stats", func() { ctl.Stats() })
			within(t, "Close", ctl.Close)
		})
	}
}

// TestPanicUnderMutexBreaksController is the battery of the panic sites
// the controller reaches under its mutex: the observer at the k-th event
// of each kind it emits there, and the scheduler at the k-th call of
// Admit, Request, Commit and Abort, for every k in 1..3, under all four
// families at MPL 4 (one transaction in three fails its work, so Abort
// runs). Each case must break the controller, not wedge it: every Run
// returns within a deadline, one of them naming the panic, a later Run
// fails naming it too, Close returns, and no goroutine is left.
func TestPanicUnderMutexBreaksController(t *testing.T) {
	const mpl, perClient = 4, 30
	deadline := 5 * time.Second
	type site struct {
		name     string
		observer bool
		kind     obs.Kind // the observer's site
	}
	sites := []site{{"observer-Admit", true, obs.KindAdmit}, {"observer-Request", true, obs.KindRequest},
		{"observer-ObjectDone", true, obs.KindObjectDone}, {"observer-Commit", true, obs.KindCommit},
		{"Admit", false, 0}, {"Request", false, 0}, {"Commit", false, 0}, {"Abort", false, 0}}
	for _, f := range []sched.Factory{sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2)} {
		for _, s := range sites {
			for k := 1; k <= 3; k++ {
				t.Run(fmt.Sprintf("%s/%s/%d", f.Label, s.name, k), func(t *testing.T) {
					goroutines := runtime.NumGoroutine()
					fac, opts := f, []Option{WithRetryDelay(time.Millisecond)}
					want := "panicked: scheduler bug in " + s.name
					if s.observer {
						var seen atomic.Int64
						opts = append(opts, WithObserver(observerFunc(func(e obs.Event) {
							if e.Kind == s.kind && seen.Add(1) == int64(k) {
								panic("observer bug")
							}
						})))
						want = "panicked: observer bug"
					} else {
						fac = panicAt(f, s.name, k)
					}
					ctl := New(fac, liveCosts, opts...)
					errs := make(chan error, mpl*perClient)
					var wg sync.WaitGroup
					for c := 0; c < mpl; c++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							defer func() {
								if p := recover(); p != nil {
									errs <- fmt.Errorf("Run panicked: %v", p)
								}
							}()
							for i := 0; i < perClient; i++ {
								id := txn.ID(c*perClient + i + 1)
								tx := txn.New(id, []txn.Step{w(txn.PartitionID(i%3), 1), r(txn.PartitionID((i+1)%3), 1)})
								err := ctl.Run(context.Background(), tx, func(step int, p Progress) error {
									p(1)
									if id%3 == 0 && step == 1 {
										return errWorkFailed
									}
									return nil
								})
								if err != nil && !errors.Is(err, errWorkFailed) {
									errs <- err
									return
								}
							}
						}()
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(deadline):
						t.Fatalf("a Run did not return within %v of the panic", deadline)
					}
					close(errs)
					named := false
					for err := range errs {
						if !strings.Contains(err.Error(), want) {
							t.Fatalf("Run: %v; want only errors naming %q", err, want)
						}
						named = true
					}
					if !named {
						t.Fatal("no Run met the panic")
					}
					if err := ctl.Run(context.Background(), txn.New(1000, []txn.Step{w(0, 1)}), nil); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("a later Run: %v; want an error naming %q", err, want)
					}
					closed := make(chan struct{})
					go func() { ctl.Close(); close(closed) }()
					select {
					case <-closed:
					case <-time.After(deadline):
						t.Fatalf("Close did not return within %v of the panic", deadline)
					}
					for end := time.Now().Add(deadline); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
						if time.Now().After(end) {
							t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), goroutines)
						}
					}
				})
			}
		}
	}
}

// TestObserverPanicAfterForceKeepsCommit: an observer that panics on the
// KindWALSync event, which force emits outside c.mu once the commit is
// durable, does not fail that commit. Run reports it committed, Stats
// counts it and the log replays it; the panic breaks the controller, so
// a later Run fails naming it.
func TestObserverPanicAfterForceKeepsCommit(t *testing.T) {
	wdir := t.TempDir()
	l, err := wal.Open(wdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctl := New(sched.C2PLFactory(), liveCosts, WithWALLog(l), WithObserver(observerFunc(func(e obs.Event) {
		if e.Kind == obs.KindWALSync {
			panic("observer bug")
		}
	})))
	defer ctl.Close()
	ctx := context.Background()
	if err := ctl.Run(ctx, txn.New(1, []txn.Step{w(0, 1)}), nil); err != nil {
		t.Fatalf("Run of a durable commit: %v", err)
	}
	if got := ctl.Stats().Committed; got != 1 {
		t.Fatalf("Stats.Committed = %d, want 1", got)
	}
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != 1 || rec.Committed[0] != 1 {
		t.Fatalf("replay committed %v, want [T1]", rec.Committed)
	}
	want := "force panicked: observer bug"
	if err := ctl.Run(ctx, txn.New(2, []txn.Step{w(0, 1)}), nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a later Run: %v; want an error naming %q", err, want)
	}
}

package live

// The battery for the pre-commit window (docs/ROBUSTNESS.md §9): finish
// releases a transaction's partition locks once its Commit record is
// appended and acknowledges it once the record is forced, so a SIGKILL
// can land between the two — with successors already reading the
// pre-committed effects from cached pages, their own records spread over
// several node logs. Each seed kills both durability streams at a seeded
// instant under 16 clients on a hot set and checks what recovery keeps.
// One client transaction in seven fails its work after its first step,
// so aborts run under the kill too. It runs every scheduler family: the
// simulator writes no log, so this is where each family meets a kill.

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
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// precommitLog is the battery's observer: it feeds the run's History,
// pulls the kill trigger at the killAt-th pre-commit (Commit events are
// emitted inside the critical section that releases the locks), and
// holds which Run calls were acknowledged.
type precommitLog struct {
	*modelcheck.History
	pre    atomic.Int64
	killAt int64
	kill   chan struct{}
	mu     sync.Mutex
	acked  map[txn.ID]bool
}

func (p *precommitLog) Observe(e obs.Event) {
	p.History.Observe(e)
	if e.Kind == obs.KindCommit && e.Decision == "" && p.pre.Add(1) == p.killAt {
		close(p.kill)
	}
}

// errWorkFailed is the work error of the battery's aborting clients.
var errWorkFailed = errors.New("work failed")

func TestKillBetweenReleaseAndForce(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for _, f := range []sched.Factory{sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2)} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			var sum killOutcome
			windowSeeds := 0
			for seed := 0; seed < seeds; seed++ {
				o := killBetweenReleaseAndForce(t, f, int64(seed))
				if o.lost > 0 {
					windowSeeds++
				}
				sum.add(o)
			}
			// The battery must hit the window it is named for: a kill that
			// finds every pre-committed record already forced proves nothing.
			if windowSeeds == 0 {
				t.Errorf("%s: no kill in %d seeds found a pre-committed, unforced record", f.Label, seeds)
			}
			// Aborts must really run, and independent recovered commits
			// must replay in parallel.
			if sum.aborted == 0 {
				t.Errorf("%s: no client work failed in %d seeds", f.Label, seeds)
			}
			if sum.maxParallel <= 1 && sum.recovered > 1 {
				t.Errorf("%s: replay parallelism never exceeded 1 across %d recoveries", f.Label, seeds)
			}
			t.Logf("%s: %d seeds: %d commits recovered (max replay parallelism %d), %d pre-committed transactions lost with their unforced records (in %d seeds), %d recovered without an acknowledgement, %d aborted by their work",
				f.Label, seeds, sum.recovered, sum.maxParallel, sum.lost, windowSeeds, sum.unacked, sum.aborted)
		})
	}
}

// killOutcome is what one seed of the battery saw: transactions that had
// pre-committed but were lost, recovered without having been
// acknowledged, recovered in all, and aborted by their work; and the
// width of the first recovery's replay schedule.
type killOutcome struct {
	lost, unacked, recovered, aborted int
	maxParallel                       int
}

// add sums o into a battery's totals; the width is the widest seen.
func (sum *killOutcome) add(o killOutcome) {
	sum.lost += o.lost
	sum.unacked += o.unacked
	sum.recovered += o.recovered
	sum.aborted += o.aborted
	sum.maxParallel = max(sum.maxParallel, o.maxParallel)
}

// killBetweenReleaseAndForce runs one seed.
func killBetweenReleaseAndForce(t *testing.T, f sched.Factory, seed int64) (out killOutcome) {
	const (
		parts   = 6
		nodes   = 3
		clients = 16
		preload = 20
	)
	rng := rand.New(rand.NewSource(seed))
	killAt := 30 + rng.Intn(120)
	frac := rng.Float64()
	repro := fmt.Sprintf("repro: go test -race -run 'TestKillBetweenReleaseAndForce/%s' ./internal/live/ — seed=%d killat=%d flushfrac=%.3f",
		f.Label, seed, killAt, frac)
	fatalf := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\n%s", seed, fmt.Sprintf(format, a...), repro)
	}

	wdir, hdir := t.TempDir(), t.TempDir()
	sopts := []storage.Option{storage.WithPageSize(1024), storage.WithPoolFrames(16)}
	preloadKey := func(p, i int) txn.ID { return txn.ID(1)<<40 + txn.ID(p*1000+i) }
	st, err := storage.Open(hdir, parts, sopts...)
	if err != nil {
		fatalf("%v", err)
	}
	for p := 0; p < parts; p++ {
		for i := 0; i < preload; i++ {
			part := txn.PartitionID(p)
			if _, err := st.Insert(part, storage.EncodeEffect(preloadKey(p, i), 0, part, 64)); err != nil {
				fatalf("preload: %v", err)
			}
		}
	}
	if err := st.Close(); err != nil {
		fatalf("preload: %v", err)
	}
	if st, err = storage.Open(hdir, parts, sopts...); err != nil {
		fatalf("%v", err)
	}
	l, err := wal.Open(wdir, nodes)
	if err != nil {
		fatalf("%v", err)
	}
	plog := &precommitLog{
		History: modelcheck.NewHistory(),
		acked:   map[txn.ID]bool{},
		killAt:  int64(killAt),
		kill:    make(chan struct{}),
	}
	ctl := New(f, liveCosts, WithRetryDelay(time.Millisecond),
		WithWALLog(l), WithStorage(st), WithObserver(plog))

	// Closed-loop clients on a hot set: two or three distinct partitions
	// of six, two thirds writes, until the log dies under them.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var next, aborted atomic.Int64
	var killed atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				perm := crng.Perm(parts)
				steps := make([]txn.Step, 2+crng.Intn(2))
				for j := range steps {
					steps[j] = txn.Step{Mode: txn.Write, Part: txn.PartitionID(perm[j]), Cost: 1}
					if crng.Intn(3) == 0 {
						steps[j].Mode = txn.Read
					}
				}
				tx := txn.New(txn.ID(next.Add(1)), steps)
				fails := crng.Intn(7) == 0
				err := ctl.Run(ctx, tx, func(step int, p Progress) error {
					p(1)
					if fails && step == 1 {
						return errWorkFailed
					}
					return nil
				})
				if errors.Is(err, errWorkFailed) {
					aborted.Add(1)
					continue
				}
				if err != nil {
					if !killed.Load() {
						t.Errorf("seed %d: %v failed before the kill: %v\n%s", seed, tx.ID, err, repro)
					}
					return
				}
				plog.mu.Lock()
				plog.acked[tx.ID] = true
				plog.mu.Unlock()
			}
		}()
	}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	select {
	case <-plog.kill:
	case <-clientsDone:
		fatalf("clients stopped before %d transactions pre-committed", killAt)
	}
	// SIGKILL, clients still running: the log keeps a frac-sized prefix of
	// each node's pending bytes, the heap tears the younger page writes.
	killed.Store(true)
	l.Crash(frac)
	if err := st.Crash(frac); err != nil {
		fatalf("%v", err)
	}
	<-clientsDone
	ctl.Close()

	// Restart from the files alone.
	st2, err := storage.Open(hdir, parts, sopts...)
	if err != nil {
		fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	scans, err := wal.Scan(wdir)
	if err != nil {
		fatalf("scan: %v", err)
	}
	rec, err := wal.Replay(scans, 4, func(b wal.Record, _ int) {
		if err := st2.Redo(b); err != nil {
			t.Errorf("seed %d: redo %v: %v\n%s", seed, b.Txn, err, repro)
		}
	})
	if err != nil {
		fatalf("replay: %v", err)
	}
	if err := st2.Flush(); err != nil {
		fatalf("flush after redo: %v", err)
	}
	// The contract (docs/ROBUSTNESS.md §10): acknowledged ⊆ recovered ⊆
	// pre-committed, no successor without its predecessor in any partition,
	// the logged order agrees with the granted one, contents = preload ∪
	// effects(recovered).
	loaded := map[txn.PartitionID][]storage.EffectKey{}
	for p := 0; p < parts; p++ {
		for i := 0; i < preload; i++ {
			loaded[txn.PartitionID(p)] = append(loaded[txn.PartitionID(p)], storage.EffectKey{Txn: preloadKey(p, i)})
		}
	}
	if err := plog.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: plog.acked, Killed: true,
		Store: st2, Preload: loaded}); err != nil {
		fatalf("%v", err)
	}
	got := make(map[txn.ID]bool, len(rec.Committed))
	for _, id := range rec.Committed {
		got[id] = true
		if !plog.acked[id] {
			out.unacked++
		}
	}
	for id := range plog.Committed() {
		if !got[id] {
			out.lost++
		}
	}

	// A second recovery — the controller's own, which reopens the log at
	// the cut — agrees with the first, and so does a third.
	ctl2, rec2, err := Recover(wdir, f, liveCosts, WithStorage(st2))
	if err != nil {
		fatalf("Recover: %v", err)
	}
	ctl2.Close()
	scans3, err := wal.Scan(wdir)
	if err != nil {
		fatalf("rescan: %v", err)
	}
	rec3, err := wal.Replay(scans3, 1, nil)
	if err != nil {
		fatalf("second replay: %v", err)
	}
	for name, again := range map[string]*wal.Recovery{"live.Recover": rec2, "a replay after it": rec3} {
		if len(again.Committed) != len(got) {
			fatalf("%s committed %d, the first recovery %d", name, len(again.Committed), len(got))
		}
		for _, id := range again.Committed {
			if !got[id] {
				fatalf("%s committed %v, the first recovery did not", name, id)
			}
		}
	}
	out.recovered, out.aborted, out.maxParallel = len(got), int(aborted.Load()), rec.MaxParallel
	return out
}

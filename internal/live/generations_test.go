package live

// The multi-generation battery: a log and a heap outlive several runs.
// Each seed runs k generations over one WAL directory and one heap
// directory, storage on. A generation runs closed-loop clients on a hot
// set until a seeded pre-commit, is killed there (Log.Crash and
// Store.Crash with one flush fraction, clients still running), and is
// restarted by live.Recover, whose controller serves the next generation
// with ids numbered after Recovery.MaxID — so an id pre-committed and
// lost by one kill is used again by the next generation. After the last
// kill one more Recover, and the contract certificate over the union of
// every generation's acknowledged commits.

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

// genLog is one generation's observer: it records the trace in order,
// pulls the kill trigger at the killAt-th pre-commit and holds which Run
// calls were acknowledged.
type genLog struct {
	mu     sync.Mutex
	events []obs.Event
	acked  map[txn.ID]bool
	pre    atomic.Int64
	killAt int64
	kill   chan struct{}
}

func (g *genLog) Observe(e obs.Event) {
	g.mu.Lock()
	g.events = append(g.events, e)
	g.mu.Unlock()
	if e.Kind == obs.KindCommit && e.Decision == "" && g.pre.Add(1) == g.killAt {
		close(g.kill)
	}
}

func TestKillRecoverGenerations(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, f := range []sched.Factory{sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2)} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			lost := 0
			for seed := 0; seed < seeds; seed++ {
				lost += killRecoverGenerations(t, f, int64(seed))
			}
			// A kill that never finds a pre-committed, unforced record
			// leaves no id for the next generation to take again.
			if lost == 0 {
				t.Errorf("%s: no kill in %d seeds lost a pre-committed transaction", f.Label, seeds)
			}
			t.Logf("%s: %d seeds, %d pre-committed transactions lost by their generation's kill", f.Label, seeds, lost)
		})
	}
}

// killRecoverGenerations runs one seed: gens cycles of run → kill →
// Recover, then the certificate. It returns how many pre-committed
// transactions the kills lost.
func killRecoverGenerations(t *testing.T, f sched.Factory, seed int64) (lost int) {
	const gens, nodes = 3, 3
	rng := rand.New(rand.NewSource(seed))
	wdir, hdir := t.TempDir(), t.TempDir()
	sopts := []storage.Option{storage.WithPageSize(1024), storage.WithPoolFrames(16)}
	l, err := wal.Open(wdir, nodes)
	if err != nil {
		t.Fatal(err)
	}
	union := modelcheck.NewHistory()
	acked := map[txn.ID]bool{}
	var prev *genLog // the generation the next restart recovers
	var ctl *Controller
	var st *storage.Store
	var rec *wal.Recovery
	for g := 0; g <= gens; g++ {
		repro := fmt.Sprintf("repro: go test -race -run 'TestKillRecoverGenerations/%s' ./internal/live/ — family=%s seed=%d generation=%d",
			f.Label, f.Label, seed, g)
		fatalf := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("%s\n%s", fmt.Sprintf(format, a...), repro)
		}
		if st, err = storage.Open(hdir, genParts, sopts...); err != nil {
			fatalf("open store: %v", err)
		}
		glog := &genLog{acked: map[txn.ID]bool{}, killAt: int64(20 + rng.Intn(60)), kill: make(chan struct{})}
		if g == 0 {
			ctl = New(f, liveCosts, WithRetryDelay(time.Millisecond), WithWALLog(l), WithStorage(st), WithObserver(glog))
			rec = &wal.Recovery{}
		} else {
			// The restart of generation g-1: every commit it acknowledged
			// survives, what it kept is closed under its conflict order, and
			// only its durable transactions join the union — a lost one's id
			// belongs to generation g now.
			if ctl, rec, err = Recover(wdir, f, liveCosts, WithRetryDelay(time.Millisecond), WithStorage(st), WithObserver(glog)); err != nil {
				fatalf("Recover: %v", err)
			}
			durable := make(map[txn.ID]bool, len(rec.Committed))
			for _, id := range rec.Committed {
				durable[id] = true
			}
			for id := range prev.acked {
				if !durable[id] {
					fatalf("acknowledged %v of generation %d lost by its kill", id, g-1)
				}
				acked[id] = true
			}
			h := modelcheck.NewHistory()
			for _, e := range prev.events {
				if e.Kind == obs.KindCommit && e.Decision == "" && !durable[e.Txn] {
					lost++
				}
				h.Observe(e)
				if durable[e.Txn] || g == gens {
					union.Observe(e)
				}
			}
			if err := h.VerifyCommitPrefix(durable); err != nil {
				fatalf("generation %d: %v", g-1, err)
			}
		}
		if g == gens {
			ctl.Close()
			break
		}
		runGeneration(t, ctl, st, glog, rec.MaxID, rng.Int63(), rng.Float64(), repro)
		prev = glog
	}
	defer st.Close()
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := union.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Acked: acked, Killed: true, Store: st}); err != nil {
		t.Fatalf("%v\nrepro: go test -race -run 'TestKillRecoverGenerations/%s' ./internal/live/ — family=%s seed=%d generation=%d (the final certificate)",
			err, f.Label, f.Label, seed, gens)
	}
	return lost
}

// genParts is the battery's hot set: its store's partition count.
const genParts = 6

// runGeneration drives ctl with eight closed-loop clients numbering their
// transactions after base — two or three distinct partitions of the hot
// set, two thirds writes, one in seven failing its work at step 1, drawn
// from seed — until glog's trigger fires, then kills the log and the
// store under them with flush fraction frac and waits for every client
// to return.
func runGeneration(t *testing.T, ctl *Controller, st *storage.Store, glog *genLog, base txn.ID, seed int64, frac float64, repro string) {
	t.Helper()
	const clients = 8
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	next := atomic.Int64{}
	next.Store(int64(base))
	var killed atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				perm := crng.Perm(genParts)
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
					continue
				}
				if err != nil {
					if !killed.Load() {
						t.Errorf("%v failed before the kill: %v\n%s", tx.ID, err, repro)
					}
					return
				}
				glog.mu.Lock()
				glog.acked[tx.ID] = true
				glog.mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-glog.kill:
	case <-done:
		t.Fatalf("clients stopped before %d transactions pre-committed\n%s", glog.killAt, repro)
	}
	killed.Store(true)
	ctl.wal.Crash(frac)
	if err := st.Crash(frac); err != nil {
		t.Fatalf("%v\n%s", err, repro)
	}
	<-done
	ctl.Close()
}

package durable_test

// The sim-vs-live grammar differential: one fixed batch, with the same
// injected aborts, through both drivers into two logs. Both reach the log
// only through the binding, so what they write for the same transactions
// must read the same: one Commit record per committed transaction.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/durable"
	"batsched/internal/event"
	"batsched/internal/fault"
	"batsched/internal/live"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/sim"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

const (
	diffNodes = 3
	diffParts = 6
)

// errInjectedAbort is what live's work callback returns at the
// injector's abort point.
var errInjectedAbort = errors.New("injected abort")

// fixedBatch is a workload.Generator that hands out a prepared batch by
// transaction id (the simulator numbers arrivals 1, 2, 3, …).
type fixedBatch []*txn.T

func (b fixedBatch) Name() string                        { return "fixed-batch" }
func (b fixedBatch) Next(id txn.ID, _ *rand.Rand) *txn.T { return b[id-1] }

// diffBatch builds the batch afresh for each driver: first partitions on
// every node file, reads and writes, one to three steps.
func diffBatch() fixedBatch {
	rng := rand.New(rand.NewSource(19))
	b := make(fixedBatch, 12)
	for i := range b {
		perm := rng.Perm(diffParts)
		steps := make([]txn.Step, 1+rng.Intn(3))
		for j := range steps {
			steps[j] = txn.Step{Mode: txn.Write, Part: txn.PartitionID(perm[j]), Cost: float64(1 + rng.Intn(2))}
			if rng.Intn(3) == 0 {
				steps[j].Mode = txn.Read
			}
		}
		b[i] = txn.New(txn.ID(i+1), steps)
	}
	return b
}

// grammar checks what a driver wrote against the log's grammar — each
// transaction the run committed (h) has exactly one record, a Commit
// carrying its footprint, and every other transaction has none — and
// returns each committed transaction's record as its node file, kind
// and footprint.
func grammar(t *testing.T, dir string, batch fixedBatch, h *modelcheck.History) map[txn.ID]string {
	t.Helper()
	scans, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[txn.ID][]wal.Record{}
	for _, ns := range scans {
		for _, r := range ns.Records {
			if r.Node != ns.Node {
				t.Fatalf("record of %v names node %d in node file %d", r.Txn, r.Node, ns.Node)
			}
			recs[r.Txn] = append(recs[r.Txn], r)
		}
	}
	committed := h.Committed()
	out := map[txn.ID]string{}
	for _, tx := range batch {
		rs := recs[tx.ID]
		if !committed[tx.ID] {
			if len(rs) != 0 {
				t.Errorf("%v did not commit, yet left %d records", tx.ID, len(rs))
			}
			continue
		}
		if len(rs) != 1 || rs[0].Kind != wal.Commit || !reflect.DeepEqual(rs[0].Steps, wal.Footprint(tx)) {
			t.Errorf("%v committed and left %+v, want one commit record with footprint %v", tx.ID, rs, wal.Footprint(tx))
			continue
		}
		out[tx.ID] = fmt.Sprintf("node-%d %v%v", rs[0].Node, rs[0].Kind, rs[0].Steps)
	}
	if len(recs) != len(out) {
		t.Errorf("%d transactions logged, %d of them committed", len(recs), len(out))
	}
	return out
}

// restart recovers dir, certifies the run whose trace h holds against
// what was recovered, and returns the committed set.
func restart(t *testing.T, dir string, h *modelcheck.History) []txn.ID {
	t.Helper()
	log, scans, rec, err := durable.Recover(dir, diffNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec}); err != nil {
		t.Fatal(err)
	}
	ids := append([]txn.ID(nil), rec.Committed...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestSimLiveGrammarDifferential(t *testing.T) {
	for _, f := range []sched.Factory{sched.KWTPGFactory(2), sched.C2PLFactory()} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			simDir, liveDir := t.TempDir(), t.TempDir()

			m := machine.DefaultConfig()
			m.NumNodes, m.NumParts, m.ObjTime = diffNodes, diffParts, 10
			batch := diffBatch()
			arrivals := make([]event.Time, len(batch))
			for i := range arrivals {
				arrivals[i] = event.Time(i+1) * 1000 // one at a time, like the serial client
			}
			sl, err := wal.Open(simDir, diffNodes)
			if err != nil {
				t.Fatal(err)
			}
			// Injected aborts land on the same transactions in sim and
			// live: the injector decides by transaction id, sim's machine
			// asks it, and live's work callback returns an error at the
			// same point.
			inj, err := fault.New(5, fault.Config{AbortRate: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			simH, liveH := modelcheck.NewHistory(), modelcheck.NewHistory()
			res, err := sim.Run(sim.Config{
				Machine: m, Scheduler: f, Workload: batch, ArrivalTimes: arrivals,
				Horizon: 1_000_000, CheckSerializability: true,
			}, sim.WithWAL(sl), sim.WithTrace(simH), sim.WithFaults(inj))
			if err != nil {
				t.Fatal(err)
			}
			if err := sl.Close(); err != nil {
				t.Fatal(err)
			}
			if res.InjectedAborts == 0 || res.Completed+res.InjectedAborts != len(batch) {
				t.Fatalf("sim completed %d and aborted %d of %d, want some of both", res.Completed, res.InjectedAborts, len(batch))
			}

			ll, err := wal.Open(liveDir, diffNodes)
			if err != nil {
				t.Fatal(err)
			}
			ctl := live.New(f, sched.Costs{KeepTime: 100}, live.WithWALLog(ll), live.WithObserver(liveH))
			for _, tx := range diffBatch() {
				abortAt, hasAbort := inj.AbortAt(tx)
				processed := 0.0
				if err := ctl.Run(context.Background(), tx, func(step int, p live.Progress) error {
					p(tx.Steps[step].Cost)
					if processed += tx.Steps[step].Cost; hasAbort && processed >= abortAt {
						return errInjectedAbort
					}
					return nil
				}); err != nil && !errors.Is(err, errInjectedAbort) {
					t.Fatal(err)
				}
			}
			ctl.Close()
			if err := ll.Close(); err != nil {
				t.Fatal(err)
			}

			gs, gl := grammar(t, simDir, batch, simH), grammar(t, liveDir, batch, liveH)
			if len(gs) != res.Completed || len(gl) != len(gs) {
				t.Fatalf("sim logged %d commits, live %d; sim completed %d", len(gs), len(gl), res.Completed)
			}
			for id, want := range gs {
				if gl[id] != want {
					t.Errorf("%v: sim wrote %q, live wrote %q", id, want, gl[id])
				}
			}
			if cs, cl := restart(t, simDir, simH), restart(t, liveDir, liveH); !reflect.DeepEqual(cs, cl) || len(cs) != res.Completed {
				t.Errorf("committed sets differ or are short: sim %v, live %v", cs, cl)
			}
		})
	}
}

package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// TestQuickNowContract: Request is the one method that reads the clock.
// For every registered family, two instances run one random sequence of
// admissions, requests, weight messages, commits and aborts in lockstep.
// One is passed the clock everywhere; the other a random time wherever
// the contract says now is unread — Admit, ObjectDone, Commit and Abort.
// Every Admit and Request must get the same outcome from both, and every
// Commit and Abort free the same partitions, so the unread times change
// no decision, neither the call's own nor a later one.
func TestQuickNowContract(t *testing.T) {
	var facs []Factory
	for _, e := range exact {
		facs = append(facs, e.factory())
	}
	for _, fam := range families {
		facs = append(facs, fam.factory(2))
	}
	costs := Costs{DDTime: 1, ChainTime: 2, KWTPGTime: 2, KeepTime: 5}
	for _, f := range facs {
		t.Run(f.Label, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				pool := make([]*txn.T, 8)
				for i := range pool {
					steps := make([]txn.Step, 1+rng.Intn(3))
					for j := range steps {
						steps[j] = txn.Step{Mode: txn.Read, Part: txn.PartitionID(rng.Intn(4)), Cost: float64(1 + rng.Intn(3))}
						if rng.Intn(2) == 0 {
							steps[j].Mode = txn.Write
						}
					}
					pool[i] = txn.New(txn.ID(i+1), steps)
				}
				clocked, unread := f.New(costs), f.New(costs)
				anyTime := func() event.Time { return event.Time(rng.Int63n(1<<40) - 1<<39) }
				states := make([]fuzzState, len(pool))
				now := event.Time(0)
				for op := 0; op < 200; op++ {
					now += event.Time(rng.Intn(3))
					i := rng.Intn(len(pool))
					tx, st := pool[i], &states[i]
					switch {
					case !st.admitted:
						a, b := clocked.Admit(tx, now), unread.Admit(tx, anyTime())
						if a != b {
							t.Logf("seed %d op %d: Admit(%v) %+v with the clock, %+v without", seed, op, tx.ID, a, b)
							return false
						}
						st.admitted = a.Decision == Granted
					case st.step > 0 && rng.Intn(3) == 0:
						objects := tx.Steps[st.step-1].Cost / 2
						clocked.ObjectDone(tx, objects, now)
						unread.ObjectDone(tx, objects, anyTime())
					case st.step < len(tx.Steps) && rng.Intn(8) > 0:
						a, b := clocked.Request(tx, st.step, now), unread.Request(tx, st.step, now)
						if a != b {
							t.Logf("seed %d op %d: Request(%v, %d) %+v, then %+v", seed, op, tx.ID, st.step, a, b)
							return false
						}
						if a.Decision == Granted {
							st.step++
						}
					default: // a commit once every step is granted, else an abort
						var a, b []txn.PartitionID
						if st.step == len(tx.Steps) {
							a, _ = clocked.Commit(tx, now)
							a = slices.Clone(a)
							b, _ = unread.Commit(tx, anyTime())
						} else {
							a, _ = clocked.Abort(tx, now)
							a = slices.Clone(a)
							b, _ = unread.Abort(tx, anyTime())
						}
						if !slices.Equal(a, b) {
							t.Logf("seed %d op %d: finishing %v freed %v with the clock, %v without", seed, op, tx.ID, a, b)
							return false
						}
						*st = fuzzState{}
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

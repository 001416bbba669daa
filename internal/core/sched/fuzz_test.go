package sched

import (
	"testing"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// fuzzTxnPool builds the fixed transaction pool used by the
// interleaving fuzzer: six transactions over four partitions with
// overlapping access sets, so conflicting-edges, precedence chains and
// blocking all occur.
func fuzzTxnPool() []*txn.T {
	mk := func(id txn.ID, steps ...txn.Step) *txn.T { return txn.New(id, steps) }
	return []*txn.T{
		mk(1, wstep(0, 2), wstep(1, 2)),
		mk(2, wstep(1, 2), wstep(2, 2)),
		mk(3, wstep(2, 2), wstep(3, 2)),
		mk(4, wstep(3, 2), wstep(0, 2)),
		mk(5, wstep(0, 1), wstep(2, 1)),
		mk(6, wstep(1, 1), wstep(3, 1)),
	}
}

// fuzzState tracks one transaction's lifecycle against the scheduler
// under test.
type fuzzState struct {
	admitted bool
	step     int // next step to request
	granted  int // steps already granted
}

// FuzzAbortCommitInterleavings drives arbitrary interleavings of
// admit / request / commit / abort over a fixed transaction pool and
// asserts that after every operation the scheduler's lock-table
// invariants hold and the WTPG stays acyclic (CriticalPath computes).
// Aborted transactions may be re-admitted — their second life must be
// indistinguishable from a fresh arrival.
func FuzzAbortCommitInterleavings(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 16, 17, 18, 19, 20, 21, 32, 33})
	f.Add([]byte{0, 16, 48, 0, 16, 32, 1, 17, 17, 33})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 53, 52, 51, 50, 49, 48})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		factories := []Factory{C2PLFactory(), ChainFactory(), KWTPGFactory(2)}
		for _, fac := range factories {
			s := fac.New(Costs{DDTime: 1, ChainTime: 2, KWTPGTime: 2, KeepTime: 50})
			pool := fuzzTxnPool()
			states := make([]fuzzState, len(pool))
			now := event.Time(0)
			check := func(opName string) {
				t.Helper()
				if err := s.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
					t.Fatalf("%s: after %s: invariants: %v", fac.Label, opName, err)
				}
				if gh, ok := s.(GraphHolder); ok {
					if _, err := gh.Graph().CriticalPath(); err != nil {
						t.Fatalf("%s: after %s: critical path: %v", fac.Label, opName, err)
					}
				}
			}
			for _, b := range ops {
				now++
				idx := int(b) % len(pool)
				tx, st := pool[idx], &states[idx]
				switch (int(b) / len(pool)) % 4 {
				case 0: // admit
					if st.admitted {
						continue
					}
					if out := s.Admit(tx, now); out.Decision == Granted {
						*st = fuzzState{admitted: true}
					}
					check("admit")
				case 1: // request next step
					if !st.admitted || st.step >= len(tx.Steps) {
						continue
					}
					out := s.Request(tx, st.step, now)
					if out.Decision == Granted {
						s.ObjectDone(tx, tx.Steps[st.step].Cost, now)
						st.step++
						st.granted++
					}
					check("request")
				case 2: // commit once every step is granted
					if !st.admitted || st.granted < len(tx.Steps) {
						continue
					}
					s.Commit(tx, now)
					*st = fuzzState{}
					check("commit")
				case 3: // abort at any point after admission
					if !st.admitted {
						continue
					}
					s.Abort(tx, now)
					*st = fuzzState{}
					check("abort")
				}
			}
			// Drain: abort every survivor; the graph and lock table must
			// come back empty.
			for i := range states {
				if states[i].admitted {
					now++
					s.Abort(pool[i], now)
					check("drain-abort")
				}
			}
			if gh, ok := s.(GraphHolder); ok {
				if n := gh.Graph().Len(); n != 0 {
					t.Fatalf("%s: %d nodes left in WTPG after drain", fac.Label, n)
				}
			}
		}
	})
}

package sched

import (
	"testing"

	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/txn"
)

func wstep(p txn.PartitionID, cost float64) txn.Step {
	return txn.Step{Mode: txn.Write, Part: p, Cost: cost}
}

// abortTriangle builds the C2PL scenario A→B→C with a surviving
// unresolved (A,C) conflicting-edge: A = w(P0) w(P2), B = w(P0) w(P1),
// C = w(P1) w(P2).
func abortTriangle(t *testing.T, s Scheduler) (a, b, c *txn.T) {
	t.Helper()
	a = txn.New(1, []txn.Step{wstep(0, 2), wstep(2, 2)})
	b = txn.New(2, []txn.Step{wstep(0, 2), wstep(1, 2)})
	c = txn.New(3, []txn.Step{wstep(1, 2), wstep(2, 2)})
	now := event.Time(0)
	for _, tx := range []*txn.T{a, b, c} {
		now++
		if out := s.Admit(tx, now); out.Decision != Granted {
			t.Fatalf("admit %v: %v", tx.ID, out.Decision)
		}
	}
	if out := s.Request(a, 0, 10); out.Decision != Granted { // resolves A→B on P0
		t.Fatalf("A step 0: %v", out.Decision)
	}
	if out := s.Request(b, 1, 11); out.Decision != Granted { // resolves B→C on P1
		t.Fatalf("B step 1: %v", out.Decision)
	}
	return a, b, c
}

func TestAbortSplicesAndReleases(t *testing.T) {
	s := NewC2PL(Costs{DDTime: 1})
	a, b, c := abortTriangle(t, s)
	_ = a
	g := s.(GraphHolder).Graph()
	if e, _ := edgeBetween(g.Edges(), a.ID, c.ID); e.Dir != wtpg.Unresolved {
		t.Fatal("(A,C) must be unresolved before the abort")
	}

	freed, _ := s.Abort(b, 20)
	// B held P0? No — B held P1 (step 1 granted); its P0 access was a
	// pending declaration. Only P1 frees.
	if len(freed) != 1 || freed[0] != txn.PartitionID(1) {
		t.Fatalf("freed = %v, want [P1]", freed)
	}
	if g.Has(b.ID) {
		t.Fatal("B must leave the WTPG")
	}
	if e, ok := edgeBetween(g.Edges(), a.ID, c.ID); !ok || e.Dir == wtpg.Unresolved || e.From() != a.ID {
		t.Fatalf("(A,C) = %+v ok=%v, want spliced A→C", e, ok)
	}
	// C can now take P1 (B's lock is gone) — but A→C is resolved, so C's
	// grants must stay consistent with it; P1 conflicts only with B,
	// which is dead, so the grant goes through.
	if out := s.Request(c, 0, 21); out.Decision != Granted {
		t.Fatalf("C step 0 after abort: %v", out.Decision)
	}
	if err := s.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Drain: A then C finish their remaining steps in spliced order.
	if out := s.Request(a, 1, 22); out.Decision != Granted {
		t.Fatalf("A step 1: %v", out.Decision)
	}
	s.Commit(a, 23)
	if out := s.Request(c, 1, 24); out.Decision != Granted {
		t.Fatalf("C step 1: %v", out.Decision)
	}
	s.Commit(c, 25)
	if g.Len() != 0 {
		t.Fatalf("graph not drained: %d nodes", g.Len())
	}
}

func TestAbortedTransactionCanBeResubmitted(t *testing.T) {
	for _, f := range []Factory{ASLFactory(), C2PLFactory(), ChainFactory(), KWTPGFactory(2)} {
		s := f.New(Costs{DDTime: 1, KeepTime: 100})
		tx := txn.New(7, []txn.Step{wstep(0, 1), wstep(1, 1)})
		if out := s.Admit(tx, 1); out.Decision != Granted {
			t.Fatalf("%s: admit: %v", f.Label, out.Decision)
		}
		if out := s.Request(tx, 0, 2); out.Decision != Granted {
			t.Fatalf("%s: step 0: %v", f.Label, out.Decision)
		}
		s.Abort(tx, 3)
		// The same transaction resubmits after the retry delay; all state
		// must have been cleaned so the second life is indistinguishable.
		if out := s.Admit(tx, 10); out.Decision != Granted {
			t.Fatalf("%s: re-admit after abort: %v", f.Label, out.Decision)
		}
		for step := range tx.Steps {
			if out := s.Request(tx, step, event.Time(11+step)); out.Decision != Granted {
				t.Fatalf("%s: step %d second life: %v", f.Label, step, out.Decision)
			}
			s.ObjectDone(tx, tx.Steps[step].Cost, event.Time(11+step))
		}
		s.Commit(tx, 20)
		if ci, ok := s.(interface{ CheckInvariants() error }); ok {
			if err := ci.CheckInvariants(); err != nil {
				t.Fatalf("%s: invariants: %v", f.Label, err)
			}
		}
	}
}

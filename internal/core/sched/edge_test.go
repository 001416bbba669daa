package sched

import (
	"testing"

	"batsched/internal/txn"
)

// TestKWTPGCacheAccounting verifies §3.4's control saving: repeated
// evaluations inside KeepTime with no start/commit/new-edge reuse cached
// E values and pay no kwtpgtime.
func TestKWTPGCacheAccounting(t *testing.T) {
	s := NewKWTPG(testCosts, 2).(*kwtpg)
	t1 := txn.New(1, []txn.Step{r(1, 5), w(0, 1)})
	t2 := txn.New(2, []txn.Step{w(0, 1)})
	admitAll(t, s, t1, t2)
	// First evaluation of T1's write: fresh E(q) and E(q') → 2×kwtpgtime.
	out := s.Request(t1, 1, 0)
	if out.Decision != Delayed {
		t.Fatalf("decision = %v", out.Decision)
	}
	if want := testCosts.DDTime + 2*testCosts.KWTPGTime; out.CPU != want {
		t.Errorf("first eval CPU = %v, want %v", out.CPU, want)
	}
	// Immediate re-evaluation: both E values cached.
	out = s.Request(t1, 1, 1)
	if out.CPU != testCosts.DDTime {
		t.Errorf("cached eval CPU = %v, want ddtime", out.CPU)
	}
	// After KeepTime, the cache expires.
	out = s.Request(t1, 1, 1+testCosts.KeepTime)
	if want := testCosts.DDTime + 2*testCosts.KWTPGTime; out.CPU != want {
		t.Errorf("post-keeptime CPU = %v, want %v", out.CPU, want)
	}
	// A commit invalidates the cache even within KeepTime.
	out2 := s.Request(t2, 0, 2+testCosts.KeepTime)
	if out2.Decision != Granted {
		t.Fatalf("T2 grant = %v", out2.Decision)
	}
	if _, cpu := s.Commit(t2, 3+testCosts.KeepTime); cpu != 0 {
		t.Fatalf("commit cpu = %v", cpu)
	}
	out = s.Request(t1, 1, 4+testCosts.KeepTime)
	if out.Decision != Granted {
		t.Fatalf("post-commit decision = %v", out.Decision)
	}
	if want := testCosts.DDTime + testCosts.KWTPGTime; out.CPU != want {
		t.Errorf("post-commit CPU = %v, want %v (one fresh E, empty C(q))", out.CPU, want)
	}
}

// TestKZeroAdmitsOnlyConflictFree: K = 0 admits a transaction only when
// none of its declarations conflicts with any pending declaration —
// ASL-like admission but with incremental locking afterwards.
func TestKZeroAdmitsOnlyConflictFree(t *testing.T) {
	s := NewKWTPG(testCosts, 0)
	a := txn.New(1, []txn.Step{w(0, 1)})
	b := txn.New(2, []txn.Step{w(0, 1)})
	c := txn.New(3, []txn.Step{w(5, 1)})
	admitAll(t, s, a)
	if out := s.Admit(b, 0); out.Decision != Aborted {
		t.Errorf("conflicting admit at K=0 = %v, want aborted", out.Decision)
	}
	admitAll(t, s, c) // disjoint partitions are fine
}

// TestZeroStepTransaction: a transaction with no steps admits, holds
// nothing and commits cleanly under every scheduler.
func TestZeroStepTransaction(t *testing.T) {
	for _, s := range []Scheduler{
		NewNODC(), NewASL(testCosts), NewC2PL(testCosts),
		NewChain(testCosts), NewKWTPG(testCosts, 2),
	} {
		empty := txn.New(1, nil)
		if out := s.Admit(empty, 0); out.Decision != Granted {
			t.Fatalf("%s: Admit(empty) = %v", s.Name(), out.Decision)
		}
		freed, _ := s.Commit(empty, 1)
		if len(freed) != 0 {
			t.Errorf("%s: empty txn freed %v", s.Name(), freed)
		}
	}
}

// TestChainIsolatedNodesAlwaysGrantable: transactions with no conflicts
// never consult W and are granted immediately.
func TestChainIsolatedNodesAlwaysGrantable(t *testing.T) {
	s := NewChain(testCosts)
	a := txn.New(1, []txn.Step{w(0, 3)})
	b := txn.New(2, []txn.Step{w(1, 3)})
	admitAll(t, s, a, b)
	for _, tx := range []*txn.T{a, b} {
		if out := s.Request(tx, 0, 0); out.Decision != Granted {
			t.Errorf("isolated request %v = %v", tx.ID, out.Decision)
		}
	}
}

// TestASLFailedAdmitLeavesNoState: a refused ASL start must hold no locks
// and leave no declarations.
func TestASLFailedAdmitLeavesNoState(t *testing.T) {
	s := NewASL(testCosts).(*asl)
	a := txn.New(1, []txn.Step{w(0, 1)})
	b := txn.New(2, []txn.Step{r(0, 1), w(7, 2)})
	admitAll(t, s, a)
	if out := s.Admit(b, 0); out.Decision != Delayed {
		t.Fatalf("Admit(b) = %v", out.Decision)
	}
	if s.locks.Known(2) {
		t.Error("refused ASL admission left declarations behind")
	}
	if got := s.locks.Holders(7); len(got) != 0 {
		t.Errorf("refused ASL admission holds locks: %v", got)
	}
}

// TestCommitUnknownTransaction: committing a transaction the scheduler
// never admitted must not corrupt state (the simulator never does this,
// but the API should be robust).
func TestCommitUnknownTransaction(t *testing.T) {
	for _, s := range []Scheduler{
		NewASL(testCosts), NewC2PL(testCosts), NewChain(testCosts), NewKWTPG(testCosts, 2),
	} {
		ghost := txn.New(99, []txn.Step{r(0, 1)})
		freed, _ := s.Commit(ghost, 0)
		if len(freed) != 0 {
			t.Errorf("%s: ghost commit freed %v", s.Name(), freed)
		}
	}
}

// TestRequestAfterPartnerCommit: delayed requests become grantable once
// the conflicting transaction commits, across all schedulers.
func TestRequestAfterPartnerCommit(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewC2PL(testCosts) },
		func() Scheduler { return NewChain(testCosts) },
		func() Scheduler { return NewKWTPG(testCosts, 2) },
	} {
		s := mk()
		long := txn.New(1, []txn.Step{w(0, 9)})
		short := txn.New(2, []txn.Step{w(0, 1)})
		admitAll(t, s, long, short)
		if out := s.Request(long, 0, 0); out.Decision != Granted {
			t.Fatalf("%s: long grant = %v", s.Name(), out.Decision)
		}
		if out := s.Request(short, 0, 1); out.Decision != Blocked {
			t.Fatalf("%s: short = %v, want blocked", s.Name(), out.Decision)
		}
		freed, _ := s.Commit(long, 100)
		if len(freed) != 1 || freed[0] != 0 {
			t.Fatalf("%s: freed = %v", s.Name(), freed)
		}
		if out := s.Request(short, 0, 101); out.Decision != Granted {
			t.Errorf("%s: short after commit = %v", s.Name(), out.Decision)
		}
	}
}

// TestSchedulerNames pins the paper's names.
func TestSchedulerNames(t *testing.T) {
	cases := map[string]Scheduler{
		"NODC":       NewNODC(),
		"ASL":        NewASL(testCosts),
		"C2PL":       NewC2PL(testCosts),
		"CHAIN":      NewChain(testCosts),
		"K2":         NewKWTPG(testCosts, 2),
		"K7":         NewKWTPG(testCosts, 7),
		"CHAIN-C2PL": NewChainC2PL(testCosts),
		"K2-C2PL":    NewKC2PL(testCosts, 2),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestLookupNames(t *testing.T) {
	good := map[string]string{
		"NODC": "NODC", "nodc": "NODC", "ASL": "ASL", "c2pl": "C2PL",
		"CHAIN": "CHAIN", "chain-c2pl": "CHAIN-C2PL",
		"K2": "K2", "k5": "K5", "K3-C2PL": "K3-C2PL", " K2 ": "K2",
	}
	for in, want := range good {
		f, err := Lookup(in)
		if err != nil {
			t.Errorf("Lookup(%q): %v", in, err)
			continue
		}
		if f.Label != want {
			t.Errorf("Lookup(%q).Label = %q, want %q", in, f.Label, want)
		}
		if s := f.New(testCosts); s == nil {
			t.Errorf("Lookup(%q) factory returned nil", in)
		}
	}
	for _, bad := range []string{"", "2PL", "Kx", "K-C2PL", "CHAINX", "K-2"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) succeeded", bad)
		}
	}
}

package sched

import (
	"testing"

	"batsched/internal/obs"
	"batsched/internal/txn"
)

// TestObservedEmitsDecisionsAndGraphEvents drives a small conflicting
// pair through an observed C2PL scheduler and checks the event stream:
// decisions for every Admit/Request, Resolve for the fixed precedence,
// and CriticalPathChange as the graph grows and drains.
func TestObservedEmitsDecisionsAndGraphEvents(t *testing.T) {
	ring := obs.NewRing(128)
	s := Observed(NewC2PL(Costs{}), ring)
	if s.Name() != "C2PL" {
		t.Fatalf("name %q", s.Name())
	}

	t1 := txn.New(1, []txn.Step{{Mode: txn.Write, Part: 0, Cost: 2}})
	t2 := txn.New(2, []txn.Step{{Mode: txn.Write, Part: 0, Cost: 3}})
	if out := s.Admit(t1, 10); out.Decision != Granted {
		t.Fatalf("admit t1: %v", out.Decision)
	}
	if out := s.Admit(t2, 11); out.Decision != Granted {
		t.Fatalf("admit t2: %v", out.Decision)
	}
	if out := s.Request(t1, 0, 12); out.Decision != Granted {
		t.Fatalf("request t1: %v", out.Decision)
	}
	if out := s.Request(t2, 0, 13); out.Decision != Blocked {
		t.Fatalf("request t2: %v", out.Decision)
	}
	s.ObjectDone(t1, 2, 14)
	s.Commit(t1, 15)
	if out := s.Request(t2, 0, 16); out.Decision != Granted {
		t.Fatalf("request t2 after commit: %v", out.Decision)
	}
	s.Commit(t2, 20)

	counts := map[obs.Kind]int{}
	decisions := map[string]int{}
	var sawResolve bool
	for _, e := range ring.Events() {
		counts[e.Kind]++
		if e.Sched != "C2PL" {
			t.Errorf("event %v has sched %q", e.Kind, e.Sched)
		}
		if e.Kind == obs.KindDecision {
			decisions[e.Op+"/"+e.Decision]++
		}
		if e.Kind == obs.KindResolve && e.From == 1 && e.To == 2 {
			sawResolve = true
		}
	}
	if counts[obs.KindDecision] != 5 {
		t.Errorf("decision events %d, want 5", counts[obs.KindDecision])
	}
	if decisions["admit/granted"] != 2 || decisions["request/granted"] != 2 || decisions["request/blocked"] != 1 {
		t.Errorf("decision breakdown %v", decisions)
	}
	if !sawResolve {
		t.Error("no Resolve event for the T1→T2 precedence")
	}
	if counts[obs.KindCriticalPathChange] == 0 {
		t.Error("no CriticalPathChange events")
	}
	if counts[obs.KindAdmit] != 0 || counts[obs.KindCommit] != 0 {
		t.Errorf("wrapper must not emit timeline events, got %v", counts)
	}
}

// TestObservedNilObserver: a nil observer is the identity.
func TestObservedNilObserver(t *testing.T) {
	inner := NewChain(Costs{})
	if got := Observed(inner, nil); got != inner {
		t.Error("Observed(s, nil) should return s")
	}
}

// TestObservedFactoryWrapsEveryInstance: a factory-built scheduler,
// observed, emits events and keeps the graph accessible.
func TestObservedFactoryWrapsEveryInstance(t *testing.T) {
	ring := obs.NewRing(64)
	s := Observed(KWTPGFactory(2).New(Costs{}), ring)
	if _, ok := s.(GraphHolder); !ok {
		t.Fatal("observed K-WTPG should still expose its graph")
	}
	t1 := txn.New(1, []txn.Step{{Mode: txn.Read, Part: 1, Cost: 1}})
	s.Admit(t1, 0)
	s.Request(t1, 0, 1)
	s.Commit(t1, 2)
	if len(ring.Events()) == 0 {
		t.Error("factory-built scheduler emitted nothing")
	}
	// NODC has no graph; the wrapper must still work.
	ring2 := obs.NewRing(8)
	n := Observed(NewNODC(), ring2)
	n.Admit(t1, 0)
	n.Request(t1, 0, 1)
	n.Commit(t1, 2)
	if got := len(ring2.Events()); got != 2 {
		t.Errorf("NODC observed events = %d, want 2 decisions", got)
	}
}

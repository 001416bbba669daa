package estimate

import (
	"math"
	"math/rand"
	"testing"

	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
)

// figure4 builds a WTPG matching the paper's Figure 4 worked example
// (Examples 3.4 and 3.5). Transactions T4, T5, T6 with w(T0→Ti) = 0;
// (T4,T5) already resolved T4→T5; (T5,T6) and (T4,T6) conflicting. The
// weights are chosen to reproduce the paper's E values exactly:
// E(q of T5) = 10 via the resolved path T4→T6, E(q' of T6) = 1.
func figure4(t *testing.T) *wtpg.Graph {
	t.Helper()
	g := wtpg.New()
	for _, id := range []txn.ID{4, 5, 6} {
		if err := g.AddNode(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddConflict(4, 5, 1, 7); err != nil { // w(T4→T5)=1
		t.Fatal(err)
	}
	if err := g.AddConflict(5, 6, 4, 1); err != nil { // w(T5→T6)=4, w(T6→T5)=1
		t.Fatal(err)
	}
	if err := g.AddConflict(4, 6, 10, 2); err != nil { // w(T4→T6)=10
		t.Fatal(err)
	}
	if err := g.Resolve(4, 5); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExample34(t *testing.T) {
	g := figure4(t)
	// q of T5 conflicts with T6: granting implies T5→T6.
	got := E(g, 5, []txn.ID{6})
	if got != 10 {
		t.Errorf("E(q) = %g, want 10", got)
	}
	// The original graph must be untouched.
	if e, _ := g.EdgeBetween(5, 6); e.Dir != wtpg.Unresolved {
		t.Error("E mutated the input graph")
	}
}

func TestExample35(t *testing.T) {
	g := figure4(t)
	// q' of T6 conflicts with q of T5: granting implies T6→T5. before(T6)
	// is empty, so (T4,T6) is simply deleted; critical path is 1.
	got := E(g, 6, []txn.ID{5})
	if got != 1 {
		t.Errorf("E(q') = %g, want 1", got)
	}
	// CC2 grants the request with the smaller E: q' wins (Example 3.5).
	if eq := E(g, 5, []txn.ID{6}); !(got < eq) {
		t.Errorf("E(q')=%g should beat E(q)=%g", got, eq)
	}
}

func TestDeadlockIsInfinite(t *testing.T) {
	g := figure4(t)
	// T5→T4 contradicts the resolved T4→T5: predicted deadlock.
	if got := E(g, 5, []txn.ID{4}); !math.IsInf(got, 1) {
		t.Errorf("E on deadlock = %g, want +Inf", got)
	}
}

func TestNoImpliedResolutions(t *testing.T) {
	g := figure4(t)
	// A request with no conflicts: E is just the current critical path
	// with unresolved edges deleted: only T4→T5 (weight 1) remains.
	if got := E(g, 5, nil); got != 1 {
		t.Errorf("E with no implied resolutions = %g, want 1", got)
	}
}

func TestW0Participates(t *testing.T) {
	g := figure4(t)
	g.SetW0(6, 20)
	// T6's own remaining demand dominates every precedence path:
	// max(w0(T6)=20, T4→T6=10, T4→T5→T6=5) = 20.
	if got := E(g, 5, []txn.ID{6}); got != 20 {
		t.Errorf("E with w0(T6)=20 = %g, want 20", got)
	}
}

// Property: E never mutates the graph, is >= the current resolved-only
// critical path (adding resolutions cannot shorten the longest path), and
// equals +Inf exactly when WouldCycleFrom holds.
func TestQuickEProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		g := wtpg.New()
		n := 3 + rng.Intn(6)
		for id := txn.ID(1); id <= txn.ID(n); id++ {
			if err := g.AddNode(id, float64(rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		for a := txn.ID(1); a <= txn.ID(n); a++ {
			for b := a + 1; b <= txn.ID(n); b++ {
				if rng.Intn(3) == 0 {
					if err := g.AddConflict(a, b, float64(rng.Intn(8)), float64(rng.Intn(8))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Resolve a random acyclic subset.
		for _, e := range g.Edges() {
			if rng.Intn(2) == 0 {
				from, to := e.A, e.B
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				if !g.WouldCycleFrom(from, []txn.ID{to}) {
					if err := g.Resolve(from, to); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		tid := txn.ID(1 + rng.Intn(n))
		var implied []txn.ID
		for _, e := range g.Edges() {
			if e.Dir != wtpg.Unresolved {
				continue
			}
			if e.A == tid && rng.Intn(2) == 0 {
				implied = append(implied, e.B)
			} else if e.B == tid && rng.Intn(2) == 0 {
				implied = append(implied, e.A)
			}
		}
		base, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		edgesBefore := len(g.Edges())
		got := E(g, tid, implied)
		if len(g.Edges()) != edgesBefore {
			t.Fatal("E mutated the graph")
		}
		if g.WouldCycleFrom(tid, implied) {
			if !math.IsInf(got, 1) {
				t.Fatalf("cycle but E = %g", got)
			}
			continue
		}
		if got < base-1e-9 {
			t.Fatalf("E = %g below resolved-only critical path %g", got, base)
		}
	}
}

// TestEZeroAlloc: E allocates nothing on either path — warm, over the
// cached critical path, and cold, after a weight message has invalidated
// it — so a regression names the kernel rather than only the K2 cycle of
// sched's TestDecisionSteadyStateAllocs.
func TestEZeroAlloc(t *testing.T) {
	g, q := benchGraph(8, 64)
	targets := []txn.ID{q + 1, q + 2, q + 3}
	E(g, q, targets) // grow the scratch once
	if n := testing.AllocsPerRun(100, func() { E(g, q, targets) }); n != 0 {
		t.Errorf("warm E: %v allocs per call, want 0", n)
	}
	cold := func() {
		g.AddW0(q, 0)
		E(g, q, targets)
	}
	if n := testing.AllocsPerRun(100, cold); n != 0 {
		t.Errorf("cold E: %v allocs per call, want 0", n)
	}
}

// TestJunkTargetTolerated: a target with no conflicting-edge to t gets a
// synthetic zero-weight ordering rather than corrupting the estimate.
func TestJunkTargetTolerated(t *testing.T) {
	g := wtpg.New()
	if err := g.AddNode(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(2, 5); err != nil {
		t.Fatal(err)
	}
	// No edge between 1 and 2; ordering 1→2 adds only the structural
	// constraint, so E = max(w0) = 5.
	if got := E(g, 1, []txn.ID{2}); got != 5 {
		t.Errorf("E with junk target = %g, want 5", got)
	}
}

// TestSelfTargetIsDeadlock: ordering t before itself is nonsense and must
// come back infinite rather than panicking.
func TestSelfTargetIsDeadlock(t *testing.T) {
	g := wtpg.New()
	if err := g.AddNode(1, 3); err != nil {
		t.Fatal(err)
	}
	if got := E(g, 1, []txn.ID{1}); !math.IsInf(got, 1) {
		t.Errorf("E(self target) = %g, want +Inf", got)
	}
}

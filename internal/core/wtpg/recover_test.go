package wtpg

import (
	"testing"

	"batsched/internal/txn"
)

// buildTriangle returns a graph over {1,2,3} with conflicting-edges
// (1,2), (2,3) and (1,3), all unresolved.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for id := txn.ID(1); id <= 3; id++ {
		if err := g.AddNode(id, 10); err != nil {
			t.Fatalf("AddNode(%v): %v", id, err)
		}
	}
	for _, pair := range [][2]txn.ID{{1, 2}, {2, 3}, {1, 3}} {
		if err := g.AddConflict(pair[0], pair[1], 5, 5); err != nil {
			t.Fatalf("AddConflict(%v): %v", pair, err)
		}
	}
	return g
}

func TestSpliceRepairsPrecedence(t *testing.T) {
	g := buildTriangle(t)
	// Fix 1→2 and 2→3, leave (1,3) unresolved, then abort 2.
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	var observed [][2]txn.ID
	g.OnResolve = func(from, to txn.ID) { observed = append(observed, [2]txn.ID{from, to}) }
	spliced := g.Splice(2, nil)
	if len(spliced) != 1 || spliced[0] != (Resolution{From: 1, To: 3}) {
		t.Fatalf("spliced = %v, want [1→3]", spliced)
	}
	if e, _ := g.EdgeBetween(1, 3); e.Dir != AtoB {
		t.Fatalf("(1,3) = %+v, want resolved 1→3", e)
	}
	if g.Has(2) || g.Len() != 2 {
		t.Fatalf("node 2 should be gone, len=%d", g.Len())
	}
	if len(observed) != 1 || observed[0] != [2]txn.ID{1, 3} {
		t.Fatalf("OnResolve saw %v, want [[1 3]]", observed)
	}
	if _, err := g.CriticalPath(); err != nil {
		t.Fatalf("critical path after splice: %v", err)
	}
}

func TestSpliceSkipsAlreadyResolvedPairs(t *testing.T) {
	g := buildTriangle(t)
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	// (1,3) already carries its own resolution; the splice must not touch it.
	if err := g.Resolve(1, 3); err != nil {
		t.Fatal(err)
	}
	if spliced := g.Splice(2, nil); len(spliced) != 0 {
		t.Fatalf("spliced = %v, want none", spliced)
	}
	if e, _ := g.EdgeBetween(1, 3); e.Dir != AtoB {
		t.Fatalf("(1,3) = %+v, want untouched 1→3", e)
	}
}

func TestSpliceRetractsUnresolvedEdges(t *testing.T) {
	g := buildTriangle(t)
	// Nothing resolved: aborting 2 must just drop the node and its
	// conflicting-edges, leaving (1,3) unresolved.
	if spliced := g.Splice(2, nil); len(spliced) != 0 {
		t.Fatalf("spliced = %v, want none", spliced)
	}
	if _, ok := g.EdgeBetween(1, 2); ok {
		t.Fatal("edge (1,2) should be retracted")
	}
	if e, ok := g.EdgeBetween(1, 3); !ok || e.Dir != Unresolved {
		t.Fatalf("edge (1,3) = %+v ok=%v, want unresolved survivor", e, ok)
	}
}

func TestSpliceNoDirectConflict(t *testing.T) {
	// 1→2→3 but 1 and 3 do not conflict: the splice has no edge to
	// re-orient and the transitive order simply dissolves.
	g := New()
	for id := txn.ID(1); id <= 3; id++ {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddConflict(1, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConflict(2, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	if spliced := g.Splice(2, nil); len(spliced) != 0 {
		t.Fatalf("spliced = %v, want none", spliced)
	}
	if _, ok := g.EdgeBetween(1, 3); ok {
		t.Fatal("no precedence should exist between 1 and 3")
	}
}

func TestSpliceUnknownIsNoop(t *testing.T) {
	g := buildTriangle(t)
	if spliced := g.Splice(99, nil); spliced != nil {
		t.Fatalf("spliced = %v, want nil", spliced)
	}
	if g.Len() != 3 {
		t.Fatalf("len = %d, want 3", g.Len())
	}
}

func TestSpliceManyPredsSuccs(t *testing.T) {
	// Star around 5: preds {1,2} and succs {3,4}, with surviving
	// conflicting-edges (1,3), (1,4), (2,3) unresolved and no (2,4) edge.
	g := New()
	for id := txn.ID(1); id <= 5; id++ {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustConflict := func(a, b txn.ID) {
		t.Helper()
		if err := g.AddConflict(a, b, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustConflict(1, 5)
	mustConflict(2, 5)
	mustConflict(5, 3)
	mustConflict(5, 4)
	mustConflict(1, 3)
	mustConflict(1, 4)
	mustConflict(2, 3)
	for _, r := range []Resolution{{1, 5}, {2, 5}, {5, 3}, {5, 4}} {
		if err := g.Resolve(r.From, r.To); err != nil {
			t.Fatal(err)
		}
	}
	spliced := g.Splice(5, nil)
	want := []Resolution{{1, 3}, {1, 4}, {2, 3}}
	if len(spliced) != len(want) {
		t.Fatalf("spliced = %v, want %v", spliced, want)
	}
	for i, r := range want {
		if spliced[i] != r {
			t.Fatalf("spliced[%d] = %v, want %v", i, spliced[i], r)
		}
	}
	if _, err := g.CriticalPath(); err != nil {
		t.Fatalf("critical path: %v", err)
	}
}

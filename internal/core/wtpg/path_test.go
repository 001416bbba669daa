package wtpg

import (
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

func TestCriticalPathTraceFigure2(t *testing.T) {
	g := figure2a(t)
	mustResolve(t, g, 1, 2)
	mustResolve(t, g, 2, 3)
	path, length, err := g.CriticalPathTrace()
	if err != nil {
		t.Fatal(err)
	}
	if length != 10 {
		t.Fatalf("length = %g, want 10", length)
	}
	want := []txn.ID{1, 2, 3}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if got := FormatPath(path, length); got != "T0 -> T1 -> T2 -> T3 -> Tf (length 10)" {
		t.Errorf("FormatPath = %q", got)
	}
}

func TestCriticalPathTraceSingleNodePath(t *testing.T) {
	g := figure2a(t)
	// Unresolved: the longest path is just T0 -> T1 (w0 = 5).
	path, length, err := g.CriticalPathTrace()
	if err != nil {
		t.Fatal(err)
	}
	if length != 5 || len(path) != 1 || path[0] != 1 {
		t.Errorf("path=%v length=%g, want [T1] 5", path, length)
	}
}

func TestCriticalPathTraceEmptyGraph(t *testing.T) {
	g := New()
	path, length, err := g.CriticalPathTrace()
	if err != nil || length != 0 || len(path) != 0 {
		t.Errorf("empty graph: path=%v length=%g err=%v", path, length, err)
	}
}

// Property: the trace's length equals CriticalPath() and the path is a
// valid chain of resolved edges whose weights sum to the length.
func TestCriticalPathTraceConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		g := New()
		n := 2 + rng.Intn(8)
		for id := txn.ID(1); id <= txn.ID(n); id++ {
			if err := g.AddNode(id, float64(rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
		}
		for a := txn.ID(1); a <= txn.ID(n); a++ {
			for b := a + 1; b <= txn.ID(n); b++ {
				if rng.Intn(3) != 0 {
					continue
				}
				if err := g.AddConflict(a, b, float64(rng.Intn(10)), float64(rng.Intn(10))); err != nil {
					t.Fatal(err)
				}
				from, to := a, b
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
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		path, length, err := g.CriticalPathTrace()
		if err != nil {
			t.Fatal(err)
		}
		if length != cp {
			t.Fatalf("trace length %g != CriticalPath %g", length, cp)
		}
		if len(path) == 0 {
			t.Fatal("empty path on non-empty graph")
		}
		// Re-walk the path.
		sum := g.W0(path[0])
		for i := 1; i < len(path); i++ {
			e, ok := g.EdgeBetween(path[i-1], path[i])
			if !ok || e.Dir == Unresolved || e.From() != path[i-1] || e.To() != path[i] {
				t.Fatalf("path hop %v→%v is not a resolved edge", path[i-1], path[i])
			}
			sum += e.Weight()
		}
		if sum != length {
			t.Fatalf("path weights sum to %g, reported %g", sum, length)
		}
	}
}

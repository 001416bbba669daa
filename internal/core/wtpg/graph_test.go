package wtpg

import (
	"math/rand"
	"strings"
	"testing"

	"batsched/internal/txn"
)

func r(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Read, Part: p, Cost: c} }
func w(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Write, Part: p, Cost: c} }

// figure1 builds the paper's Figure 1 transactions:
//
//	T1: r1(A:1) -> r1(B:3) -> w1(A:1)
//	T2: r2(C:1) -> w2(A:1)
//	T3: w3(C:1) -> r3(D:3)
//
// with partitions A=0, B=1, C=2, D=3.
func figure1() (t1, t2, t3 *txn.T) {
	t1 = txn.New(1, []txn.Step{r(0, 1), r(1, 3), w(0, 1)})
	t2 = txn.New(2, []txn.Step{r(2, 1), w(0, 1)})
	t3 = txn.New(3, []txn.Step{w(2, 1), r(3, 3)})
	return
}

// figure2a builds the WTPG of the paper's Figure 2-(a): all three
// transactions have just started.
func figure2a(t *testing.T) *Graph {
	t.Helper()
	t1, t2, t3 := figure1()
	g := New()
	for _, tx := range []*txn.T{t1, t2, t3} {
		if err := g.AddNode(tx.ID, tx.DeclaredTotal()); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]*txn.T{{t1, t2}, {t2, t3}} {
		wab, wba, ok := ConflictWeights(pair[0], pair[1])
		if !ok {
			t.Fatalf("%v and %v do not conflict", pair[0].ID, pair[1].ID)
		}
		if err := g.AddConflict(pair[0].ID, pair[1].ID, wab, wba); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestConflictWeightsFigure2 checks the worked example of §3.1: the
// conflicting-edge (T2,T3) is a pair of edges T2→T3 of weight 4 and T2←T3
// of weight 2, and w(T1→T2) = 1.
func TestConflictWeightsFigure2(t *testing.T) {
	t1, t2, t3 := figure1()
	if w12, w21, ok := ConflictWeights(t1, t2); !ok || w12 != 1 || w21 != 5 {
		t.Errorf("ConflictWeights(T1,T2) = %g,%g,%v; want 1,5,true", w12, w21, ok)
	}
	if w23, w32, ok := ConflictWeights(t2, t3); !ok || w23 != 4 || w32 != 2 {
		t.Errorf("ConflictWeights(T2,T3) = %g,%g,%v; want 4,2,true", w23, w32, ok)
	}
	if _, _, ok := ConflictWeights(t1, t3); ok {
		t.Error("T1 and T3 must not conflict")
	}
}

// TestCriticalPathFigure2 reproduces Example 3.2: resolving by
// W = {T1→T2, T3→T2} yields critical path 6; resolving by {T1→T2→T3}
// yields 10.
func TestCriticalPathFigure2(t *testing.T) {
	g := figure2a(t)
	// Unresolved: only T0 edges count. Longest is w(T0→T1) = 5.
	if cp, err := g.CriticalPath(); err != nil || cp != 5 {
		t.Fatalf("unresolved critical path = %g,%v; want 5", cp, err)
	}
	gb := g.Clone()
	if err := gb.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := gb.Resolve(3, 2); err != nil {
		t.Fatal(err)
	}
	if cp, err := gb.CriticalPath(); err != nil || cp != 6 {
		t.Fatalf("W={T1→T2,T3→T2}: critical path = %g,%v; want 6", cp, err)
	}
	gc := g.Clone()
	if err := gc.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := gc.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	if cp, err := gc.CriticalPath(); err != nil || cp != 10 {
		t.Fatalf("W={T1→T2→T3}: critical path = %g,%v; want 10", cp, err)
	}
	// The original graph is untouched by clone operations.
	if cp, err := g.CriticalPath(); err != nil || cp != 5 {
		t.Fatalf("original mutated: %g,%v", cp, err)
	}
}

func TestResolveRules(t *testing.T) {
	g := figure2a(t)
	if err := g.Resolve(1, 3); err == nil {
		t.Error("resolving a non-conflict succeeded")
	}
	if err := g.Resolve(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(2, 1); err != nil {
		t.Errorf("idempotent resolve failed: %v", err)
	}
	if err := g.Resolve(1, 2); err == nil {
		t.Error("contradictory resolve succeeded")
	}
	e, _ := g.EdgeBetween(2, 1)
	if e.Dir == Unresolved || e.Weight() != 5 || e.From() != 2 || e.To() != 1 {
		t.Errorf("edge = %+v; want resolved 2→1 with weight 5", e)
	}
}

// TestBeforeAfter pins the reference engine's before(T)/after(T) sets,
// which the E(q) differential's oracle is built on.
func TestBeforeAfter(t *testing.T) {
	g := figure2a(t)
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	ref := refOf(g)
	before := ref.Before(3)
	if !before[1] || !before[2] || len(before) != 2 {
		t.Errorf("Before(3) = %v, want {1,2}", before)
	}
	after := ref.After(1)
	if !after[2] || !after[3] || len(after) != 2 {
		t.Errorf("After(1) = %v, want {2,3}", after)
	}
	if len(ref.Before(1)) != 0 || len(ref.After(3)) != 0 {
		t.Error("endpoints have unexpected ancestors/descendants")
	}
	if p := g.Predecessors(3); len(p) != 1 || p[0] != 2 {
		t.Errorf("Predecessors(3) = %v, want the direct edge only, [2]", p)
	}
}

func TestWouldCycle(t *testing.T) {
	g := figure2a(t)
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.WouldCycleFrom(2, nil) || refOf(g).WouldCycle(nil) {
		t.Error("acyclic graph reported cyclic")
	}
	if g.WouldCycleFrom(2, []txn.ID{3}) {
		t.Error("extending a chain reported cyclic")
	}
	if !g.WouldCycleFrom(2, []txn.ID{1}) {
		t.Error("contradiction of existing edge not reported")
	}
	// 2→3 plus 3→... back to 1 through a hypothetical edge.
	if err := g.Resolve(2, 3); err != nil {
		t.Fatal(err)
	}
	if !g.WouldCycleFrom(3, []txn.ID{1}) {
		t.Error("cycle via extra resolution not reported")
	}
	// Two sources at once: only the reference engine's general form.
	if !refOf(g).WouldCycle([]Resolution{{3, 4}, {4, 1}}) {
		t.Error("cycle through two extra resolutions not reported")
	}
}

func TestW0Maintenance(t *testing.T) {
	g := figure2a(t)
	g.AddW0(1, -1)
	if g.W0(1) != 4 {
		t.Errorf("W0 after decrement = %g, want 4", g.W0(1))
	}
	g.AddW0(1, -10)
	if g.W0(1) != 0 {
		t.Errorf("W0 clamped = %g, want 0", g.W0(1))
	}
	if cp, _ := g.CriticalPath(); cp != 4 {
		t.Errorf("critical path after decrement = %g, want 4 (T3's w0)", cp)
	}
}

func TestRemove(t *testing.T) {
	g := figure2a(t)
	if err := g.Resolve(1, 2); err != nil {
		t.Fatal(err)
	}
	g.Remove(2)
	if g.Has(2) {
		t.Fatal("node survived Remove")
	}
	if _, ok := g.EdgeBetween(1, 2); ok {
		t.Error("edge (1,2) survived Remove")
	}
	if _, ok := g.EdgeBetween(2, 3); ok {
		t.Error("edge (2,3) survived Remove")
	}
	if g.ConflictDegree(1) != 0 || g.ConflictDegree(3) != 0 {
		t.Error("neighbours keep adjacency to removed node")
	}
	if cp, err := g.CriticalPath(); err != nil || cp != 5 {
		t.Errorf("critical path = %g,%v; want 5", cp, err)
	}
}

func TestChainsFigure2(t *testing.T) {
	g := figure2a(t)
	chains, ok := g.Chains()
	if !ok {
		t.Fatal("Figure 2 WTPG is chain-form")
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %v, want one chain", chains)
	}
	c := chains[0]
	if len(c) != 3 || c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("chain = %v, want [1 2 3]", c)
	}
}

func TestChainsIsolatedAndMultiple(t *testing.T) {
	g := New()
	for id := txn.ID(1); id <= 5; id++ {
		if err := g.AddNode(id, float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Chain 1-2, isolated 3, chain 4-5.
	if err := g.AddConflict(2, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConflict(4, 5, 1, 1); err != nil {
		t.Fatal(err)
	}
	chains, ok := g.Chains()
	if !ok || len(chains) != 3 {
		t.Fatalf("chains = %v ok=%v, want 3 chains", chains, ok)
	}
	want := []Chain{{1, 2}, {3}, {4, 5}}
	for i := range want {
		if len(chains[i]) != len(want[i]) {
			t.Fatalf("chains = %v, want %v", chains, want)
		}
		for j := range want[i] {
			if chains[i][j] != want[i][j] {
				t.Fatalf("chains = %v, want %v", chains, want)
			}
		}
	}
}

func TestChainsRejectsStar(t *testing.T) {
	g := New()
	for id := txn.ID(1); id <= 4; id++ {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, other := range []txn.ID{2, 3, 4} {
		if err := g.AddConflict(1, other, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := g.Chains(); ok {
		t.Error("star with degree 3 accepted as chain form")
	}
}

func TestChainsRejectsCycle(t *testing.T) {
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
	if err := g.AddConflict(3, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Chains(); ok {
		t.Error("triangle accepted as chain form")
	}
}

func TestCriticalPathCycleError(t *testing.T) {
	g := New()
	if err := g.AddNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(3, 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]txn.ID{{1, 2}, {2, 3}, {1, 3}} {
		if err := g.AddConflict(p[0], p[1], 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 1→2→3→1 is a precedence cycle.
	mustResolve(t, g, 1, 2)
	mustResolve(t, g, 2, 3)
	mustResolve(t, g, 3, 1)
	if _, err := g.CriticalPath(); err == nil {
		t.Error("CriticalPath on cyclic precedence graph returned no error")
	}
}

func mustResolve(t *testing.T, g *Graph, from, to txn.ID) {
	t.Helper()
	if err := g.Resolve(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeAndConflictValidation(t *testing.T) {
	g := New()
	if err := g.AddNode(1, -1); err == nil {
		t.Error("negative w0 accepted")
	}
	if err := g.AddNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(1, 2); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := g.AddConflict(1, 1, 1, 1); err == nil {
		t.Error("self conflict accepted")
	}
	if err := g.AddConflict(1, 9, 1, 1); err == nil {
		t.Error("conflict with unknown node accepted")
	}
	if err := g.AddNode(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConflict(1, 2, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConflict(2, 1, 3, 4); err == nil {
		t.Error("duplicate conflict accepted")
	}
	// Weight orientation is preserved regardless of argument order.
	e, _ := g.EdgeBetween(1, 2)
	if e.WAB != 1 || e.WBA != 2 {
		t.Errorf("edge weights = %g,%g; want 1,2", e.WAB, e.WBA)
	}
}

func TestDOT(t *testing.T) {
	g := figure2a(t)
	mustResolve(t, g, 1, 2)
	dot := g.DOT("fig2")
	for _, want := range []string{"T0 -> T1", "T1 -> T2 [label=\"1\"]", "dir=both", "digraph"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// Randomized: resolving edges one at a time in random legal (acyclic)
// order must keep CriticalPath monotonically nondecreasing (adding
// precedence constraints can only lengthen the longest path) and Chains'
// membership must be stable under resolution state.
func TestRandomResolutionMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 2 + rng.Intn(8)
		for id := txn.ID(1); id <= txn.ID(n); id++ {
			if err := g.AddNode(id, float64(rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
		}
		// Random chain-ish conflicts.
		for id := txn.ID(1); id < txn.ID(n); id++ {
			if rng.Intn(4) > 0 {
				if err := g.AddConflict(id, id+1, float64(rng.Intn(10)), float64(rng.Intn(10))); err != nil {
					t.Fatal(err)
				}
			}
		}
		prev, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			from, to := e.A, e.B
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			if g.WouldCycleFrom(from, []txn.ID{to}) {
				from, to = to, from
			}
			if err := g.Resolve(from, to); err != nil {
				t.Fatal(err)
			}
			cp, err := g.CriticalPath()
			if err != nil {
				t.Fatal(err)
			}
			if cp+1e-9 < prev {
				t.Fatalf("critical path decreased: %g -> %g", prev, cp)
			}
			prev = cp
		}
	}
}

// TestPredecessors pins the accessor the WAL's dependency records are
// built from: direct resolved in-edges only (no transitive closure, no
// unresolved conflicts), sorted by ID, never aliasing graph storage.
func TestPredecessors(t *testing.T) {
	g := New()
	for id := txn.ID(1); id <= 5; id++ {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 3 <- {2, 1} resolved; 3 <-> 4 unresolved; 5 isolated; 1 -> 2 too,
	// so 1 reaches 3 both directly and transitively through 2.
	for _, e := range [][2]txn.ID{{1, 2}, {2, 3}, {1, 3}, {3, 4}} {
		if err := g.AddConflict(e[0], e[1], 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]txn.ID{{2, 3}, {1, 3}, {1, 2}} {
		if err := g.Resolve(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(id txn.ID, want []txn.ID) {
		t.Helper()
		got := g.Predecessors(id)
		if len(got) != len(want) {
			t.Fatalf("Predecessors(%v) = %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Predecessors(%v) = %v, want %v", id, got, want)
			}
		}
	}
	check(1, nil)            // no in-edges
	check(2, []txn.ID{1})    // single resolved pred
	check(3, []txn.ID{1, 2}) // direct only, sorted — 4 unresolved, excluded
	check(4, nil)            // its conflict with 3 is unresolved
	check(5, nil)            // isolated
	check(99, nil)           // unknown ID
	// The returned slice is a copy: mutating it must not corrupt the graph.
	p := g.Predecessors(3)
	p[0] = 999
	check(3, []txn.ID{1, 2})
	// Removing a predecessor drops it from later reads.
	g.Remove(1)
	check(3, []txn.ID{2})
	check(2, nil)
}

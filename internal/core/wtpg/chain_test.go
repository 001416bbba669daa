package wtpg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/core/chainopt"
	"batsched/internal/txn"
)

// randomChainForm builds a chain-form graph of n nodes (ids 1..n): a
// random permutation cut into paths at random points, with random edge
// weights, some edges resolved either way along the path (resolutions do
// not matter to chain form and must not).
func randomChainForm(rng *rand.Rand, n int) *Graph {
	g := New()
	for id := txn.ID(1); id <= txn.ID(n); id++ {
		_ = g.AddNode(id, float64(id%5))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			continue // cut: perm[i] starts a new chain
		}
		a, b := txn.ID(perm[i-1]+1), txn.ID(perm[i]+1)
		_ = g.AddConflict(a, b, float64(rng.Intn(5)), float64(rng.Intn(5)))
		switch rng.Intn(3) {
		case 0:
			_ = g.Resolve(a, b)
		case 1:
			_ = g.Resolve(b, a)
		}
	}
	return g
}

// refChainInput is the conversion from a chain to the optimiser's input
// through one EdgeBetween lookup per chain edge, the reference
// TestQuickChainInput holds Graph.ChainInput to.
func refChainInput(g *Graph, ch Chain) chainopt.Chain {
	n := len(ch)
	in := chainopt.Chain{
		R:     make([]float64, n),
		Down:  make([]float64, n-1),
		Up:    make([]float64, n-1),
		Fixed: make([]chainopt.Orientation, n-1),
	}
	for k, id := range ch {
		in.R[k] = g.W0(id)
	}
	for k := 0; k+1 < n; k++ {
		e, ok := g.EdgeBetween(ch[k], ch[k+1])
		if !ok {
			panic("refChainInput: chain edge missing")
		}
		in.Down[k], in.Up[k] = e.WAB, e.WBA
		if e.A != ch[k] {
			in.Down[k], in.Up[k] = e.WBA, e.WAB
		}
		if e.Dir != Unresolved {
			in.Fixed[k] = chainopt.Up
			if e.From() == ch[k] {
				in.Fixed[k] = chainopt.Down
			}
		}
	}
	return in
}

// Property: ChainInput fills the optimiser's input as the EdgeBetween
// conversion does, for every chain of random chain-form graphs, into one
// reused value. The run must meet one- and two-node chains and edges
// fixed each way.
func TestQuickChainInput(t *testing.T) {
	var in chainopt.Chain
	var lens [3]int
	var fixed [3]int
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomChainForm(rng, 1+int(nRaw)%12)
		for id := txn.ID(1); id <= txn.ID(g.Len()); id++ {
			g.AddW0(id, -float64(rng.Intn(3))) // weight messages since admission
		}
		chains, ok := g.Chains()
		if !ok {
			t.Errorf("seed %d: generator left chain form", seed)
			return false
		}
		for _, ch := range chains {
			g.ChainInput(ch, &in)
			want := refChainInput(g, ch)
			if !slices.Equal(in.R, want.R) || !slices.Equal(in.Down, want.Down) ||
				!slices.Equal(in.Up, want.Up) || !slices.Equal(in.Fixed, want.Fixed) {
				t.Errorf("seed %d: chain %v: ChainInput %+v, EdgeBetween conversion %+v", seed, ch, in, want)
				return false
			}
			lens[min(len(ch), 3)-1]++
			for _, o := range in.Fixed {
				fixed[o]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if lens[0] == 0 || lens[1] == 0 || lens[2] == 0 || fixed[chainopt.Free] == 0 || fixed[chainopt.Down] == 0 || fixed[chainopt.Up] == 0 {
		t.Fatalf("coverage: chains of 1, 2, 3+ nodes %v; free, down, up edges %v", lens, fixed)
	}
}

// ChainInput panics on a sequence that is not a path of the graph.
func TestChainInputNotAPath(t *testing.T) {
	g := New()
	for id := txn.ID(1); id <= 3; id++ {
		_ = g.AddNode(id, 1)
	}
	_ = g.AddConflict(1, 2, 1, 1)
	for _, ch := range []Chain{{1, 3}, {1, 2, 3}, {4}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChainInput(%v) did not panic", ch)
				}
			}()
			var in chainopt.Chain
			g.ChainInput(ch, &in)
		}()
	}
}

// Property: StaysChainForm answers, without touching the graph, what
// AddNode + one AddConflict per neighbour + Chains would answer.
func TestQuickStaysChainForm(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%12
		g := randomChainForm(rng, n)
		if _, ok := g.Chains(); !ok {
			t.Errorf("seed %d: generator left chain form", seed)
			return false
		}
		var neighbours []txn.ID
		for _, i := range rng.Perm(n)[:min(int(kRaw)%4, n)] {
			neighbours = append(neighbours, txn.ID(i+1))
		}
		nodes, edges := g.Len(), len(g.Edges())
		got := g.StaysChainForm(neighbours)
		if g.Len() != nodes || len(g.Edges()) != edges {
			t.Errorf("seed %d: StaysChainForm mutated the graph", seed)
			return false
		}
		newcomer := txn.ID(n + 1)
		_ = g.AddNode(newcomer, 1)
		for _, id := range neighbours {
			if err := g.AddConflict(newcomer, id, 1, 1); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
		}
		_, want := g.Chains()
		if got != want {
			t.Errorf("seed %d: n=%d neighbours=%v: StaysChainForm %v, Chains after adding %v", seed, n, neighbours, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStaysChainFormUnknownNeighbour(t *testing.T) {
	g := New()
	_ = g.AddNode(1, 1)
	if g.StaysChainForm([]txn.ID{2}) {
		t.Error("a neighbour outside the graph kept chain form")
	}
	if !g.StaysChainForm(nil) {
		t.Error("an isolated newcomer broke chain form")
	}
}

// BenchmarkStaysChainForm: the admission test of a 16-node hot-set WTPG —
// two 8-chains — for a newcomer bridging their ends (the longest walk).
func BenchmarkStaysChainForm(b *testing.B) {
	g := New()
	for id := txn.ID(1); id <= 16; id++ {
		_ = g.AddNode(id, 1)
		if id != 1 && id != 9 {
			_ = g.AddConflict(id-1, id, 1, 1)
		}
	}
	neighbours := []txn.ID{1, 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.StaysChainForm(neighbours) {
			b.Fatal("bridging two chains broke chain form")
		}
	}
}

package wtpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batsched/internal/txn"
)

// randomChainForm builds a chain-form graph of n nodes (ids 1..n): a
// random permutation cut into paths at random points, some edges resolved
// along the way (resolutions do not matter to chain form and must not).
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
		_ = g.AddConflict(a, b, 1, 2)
		if rng.Intn(2) == 0 {
			_ = g.Resolve(a, b)
		}
	}
	return g
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

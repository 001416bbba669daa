package estimate

import (
	"math/rand"
	"testing"

	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
)

// benchGraph builds a mid-size WTPG: nHolders transactions with resolved
// out-edges to nWaiters pending transactions, plus a band of unresolved
// conflicts among the waiters.
func benchGraph(nHolders, nWaiters int) (*wtpg.Graph, txn.ID) {
	g := wtpg.New()
	rng := rand.New(rand.NewSource(2))
	id := txn.ID(1)
	var holders, waiters []txn.ID
	for i := 0; i < nHolders; i++ {
		_ = g.AddNode(id, float64(rng.Intn(10)))
		holders = append(holders, id)
		id++
	}
	for i := 0; i < nWaiters; i++ {
		_ = g.AddNode(id, float64(rng.Intn(10)))
		waiters = append(waiters, id)
		id++
	}
	for _, h := range holders {
		for _, w := range waiters {
			_ = g.AddConflict(h, w, float64(rng.Intn(10)), float64(rng.Intn(10)))
			_ = g.Resolve(h, w)
		}
	}
	for i := 0; i+1 < len(waiters); i += 2 {
		_ = g.AddConflict(waiters[i], waiters[i+1], float64(rng.Intn(10)), float64(rng.Intn(10)))
	}
	return g, waiters[0]
}

func BenchmarkESmall(b *testing.B) {
	g, q := benchGraph(4, 12)
	targets := []txn.ID{q + 1, q + 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E(g, q, targets)
	}
}

func BenchmarkELarge(b *testing.B) {
	g, q := benchGraph(16, 300)
	targets := []txn.ID{q + 1, q + 3, q + 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E(g, q, targets)
	}
}

// BenchmarkEstimateE is the headline E(q) benchmark on its warm path: a
// mid-size graph, one request with implied targets, evaluated again and
// again on the unchanged graph, so the critical-path pass E builds on is
// cached and only after(t) is re-relaxed. Steady state must allocate
// nothing.
func BenchmarkEstimateE(b *testing.B) {
	g, q := benchGraph(8, 64)
	targets := []txn.ID{q + 1, q + 2, q + 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E(g, q, targets)
	}
}

// BenchmarkEstimateECold is BenchmarkEstimateE on its cold path: a weight
// message (AddW0, by zero) before every evaluation invalidates the cached
// critical path, so each call also pays the graph's one full pass, as a
// K2 request does after an object has been processed.
func BenchmarkEstimateECold(b *testing.B) {
	g, q := benchGraph(8, 64)
	targets := []txn.ID{q + 1, q + 2, q + 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddW0(q, 0)
		E(g, q, targets)
	}
}

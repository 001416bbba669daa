package workload

import (
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

// TestDistinctMatchesPerm: distinct returns rng.Perm(len(pool))[:k]'s
// partitions and leaves the RNG at the draw Perm leaves it at, over 1,000
// seeds: every pool size from 1 to 70, with k spread over 0 to the pool.
func TestDistinctMatchesPerm(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		n := 1 + int(seed%70)
		pool := rangeParts(100, n)
		k := int(seed*37) % (n + 1)
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		dst := make([]txn.PartitionID, k)
		distinct(got, pool, dst)
		for i, j := range want.Perm(n)[:k] {
			if dst[i] != pool[j] {
				t.Fatalf("seed %d, pool %d, k %d: distinct = %v, Perm gives %v at %d", seed, n, k, dst, pool[j], i)
			}
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("seed %d, pool %d, k %d: next draw %d after distinct, %d after Perm", seed, n, k, a, b)
		}
	}
}

// TestNextAllocs pins a generated transaction at three heap allocations:
// the T and its Steps and Declared slices.
func TestNextAllocs(t *testing.T) {
	hot := HotSetLayout{NumReadOnly: 8, NumHots: 8}
	for _, g := range []Generator{
		Experiment1(16), Experiment2(hot), Experiment3(hot),
		UniformPattern(txn.MustParsePattern("scan", "r(A:4) -> r(B:4) -> w(C:1) -> r(A:1)"), 64),
		ShortTransactions(16, 0.02),
	} {
		rng := rand.New(rand.NewSource(1))
		id := txn.ID(0)
		if n := testing.AllocsPerRun(200, func() { id++; g.Next(id, rng) }); n > 3 {
			t.Errorf("%s: %.1f allocations per transaction, want at most 3", g.Name(), n)
		}
	}
}

// BenchmarkGeneratorNextPattern2 is the Experiment 2 generator's cost per
// arrival (Pattern2 over eight hot partitions).
func BenchmarkGeneratorNextPattern2(b *testing.B) {
	g := Experiment2(HotSetLayout{NumReadOnly: 8, NumHots: 8})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next(txn.ID(i+1), rng)
	}
}

// Package workload generates the paper's BAT workloads (§4): the three
// transaction patterns, their random partition bindings, the hot-set
// layout of Experiments 2 and 3, and Experiment 4's erroneous
// I/O-demand declaration model.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"batsched/internal/txn"
)

// The paper's transaction patterns. Step costs are the object counts
// printed in §4 (already folded through the read/update cost model of
// §2.2, e.g. w(F1:0.2) = 2 × 10% of the 1-object read of F1).
var (
	// Pattern1 (Experiments 1 and 4): "join the selected result of F1 with
	// F2, and update these partitions depending on the joined result".
	Pattern1 = txn.MustParsePattern("Pattern1", "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)")
	// Pattern2 (Experiment 2): read a read-only partition, update two hot
	// partitions.
	Pattern2 = txn.MustParsePattern("Pattern2", "r(B:5) -> w(F1:1) -> w(F2:1)")
	// Pattern3 (Experiment 3): like Pattern2 with a longer blocking time.
	Pattern3 = txn.MustParsePattern("Pattern3", "r(B:4) -> w(F1:1) -> w(F2:2)")
)

// Generator produces the next arriving transaction.
type Generator interface {
	// Name identifies the workload in result tables.
	Name() string
	// Next builds transaction id using rng for all randomness.
	Next(id txn.ID, rng *rand.Rand) *txn.T
}

// PatternGenerator instantiates a fixed pattern with a per-transaction
// random binding of its variables to partitions.
type PatternGenerator struct {
	Label   string
	Pattern *txn.Pattern
	// BindVars binds one transaction instance: it fills parts with one
	// partition per variable, in Pattern.Vars() order.
	BindVars func(rng *rand.Rand, parts []txn.PartitionID)
}

// Name implements Generator.
func (g *PatternGenerator) Name() string { return g.Label }

// partsPool holds the buffers Next binds into. BindVars is called
// through a func value, so a buffer passed to it escapes to the heap; a
// pooled one keeps a generated transaction at three allocations (the T
// and its two slices), and generators are called from many goroutines.
var partsPool = sync.Pool{New: func() any { return new([]txn.PartitionID) }}

// Next implements Generator.
func (g *PatternGenerator) Next(id txn.ID, rng *rand.Rand) *txn.T {
	n := g.Pattern.NumVars()
	buf := partsPool.Get().(*[]txn.PartitionID)
	parts := slices.Grow((*buf)[:0], n)[:n]
	g.BindVars(rng, parts)
	t := g.Pattern.BindParts(id, parts)
	*buf = parts
	partsPool.Put(buf)
	return t
}

// distinct fills dst with len(dst) distinct partitions drawn uniformly
// from pool: rng.Perm(len(pool))[:len(dst)] mapped through pool, draw for
// draw. It makes all len(pool) of Perm's Intn calls, so the stream, and
// with it every simulated number, is what Perm leaves; but it keeps only
// the permutation's first len(dst) entries, in dst itself.
func distinct(rng *rand.Rand, pool, dst []txn.PartitionID) {
	k := len(dst)
	if k > len(pool) {
		panic(fmt.Sprintf("workload: need %d distinct partitions from pool of %d", k, len(pool)))
	}
	for i := range pool { // Perm's inside-out shuffle, restricted to m[:k]
		j := rng.Intn(i + 1)
		if i < k {
			dst[i] = dst[j]
		}
		if j < k {
			dst[j] = txn.PartitionID(i)
		}
	}
	for x, i := range dst {
		dst[x] = pool[i]
	}
}

// rangeParts returns [lo, lo+n) as partition ids.
func rangeParts(lo, n int) []txn.PartitionID {
	out := make([]txn.PartitionID, n)
	for i := range out {
		out[i] = txn.PartitionID(lo + i)
	}
	return out
}

// Experiment1 builds the Experiment 1/4 workload: Pattern1 with F1 and F2
// chosen randomly and distinctly among numParts partitions (paper: 16
// partitions of 5 objects each).
func Experiment1(numParts int) Generator {
	pool := rangeParts(0, numParts)
	return &PatternGenerator{
		Label:   fmt.Sprintf("Pattern1/NumParts=%d", numParts),
		Pattern: Pattern1,
		BindVars: func(rng *rand.Rand, parts []txn.PartitionID) { // F1, F2
			distinct(rng, pool, parts)
		},
	}
}

// HotSetLayout describes the Experiment 2/3 database: numReadOnly
// read-only partitions (ids 0..numReadOnly-1, one per node when
// numReadOnly equals NumNodes) followed by numHots hot partitions (ids
// numReadOnly..numReadOnly+numHots-1).
type HotSetLayout struct {
	NumReadOnly int
	NumHots     int
}

// NumParts returns the total partition count of the layout.
func (l HotSetLayout) NumParts() int { return l.NumReadOnly + l.NumHots }

// hotSetGenerator builds Pattern2/Pattern3-style workloads over a hot-set
// layout: B uniform over the read-only partitions, F1 and F2 distinct
// uniform over the hot set.
func hotSetGenerator(label string, p *txn.Pattern, l HotSetLayout) Generator {
	readOnly := rangeParts(0, l.NumReadOnly)
	hots := rangeParts(l.NumReadOnly, l.NumHots)
	return &PatternGenerator{
		Label:   label,
		Pattern: p,
		BindVars: func(rng *rand.Rand, parts []txn.PartitionID) { // B, F1, F2
			parts[0] = readOnly[rng.Intn(len(readOnly))]
			distinct(rng, hots, parts[1:])
		},
	}
}

// Experiment2 builds the Experiment 2 workload (Pattern2 over a hot set).
func Experiment2(l HotSetLayout) Generator {
	return hotSetGenerator(fmt.Sprintf("Pattern2/NumHots=%d", l.NumHots), Pattern2, l)
}

// Experiment3 builds the Experiment 3 workload (Pattern3 over a hot set;
// the paper fixes NumHots = 8).
func Experiment3(l HotSetLayout) Generator {
	return hotSetGenerator(fmt.Sprintf("Pattern3/NumHots=%d", l.NumHots), Pattern3, l)
}

// declarationError wraps a generator so that every declared I/O demand is
// perturbed per Experiment 4: C = C0 × (1 + x), x ~ N(0, σ), clamped to 0
// when x ≤ -1. True demands are untouched.
type declarationError struct {
	inner Generator
	sigma float64
}

// WithDeclarationError applies the Experiment 4 error model with standard
// deviation sigma to a generator's declared demands.
//
// sigma = 0 still wraps the generator (producing exact declarations) so
// that runs at different sigmas consume identical random streams: paired
// comparisons across sigma then see the same arrival sequence and
// partition bindings, and only the declared demands differ.
func WithDeclarationError(inner Generator, sigma float64) Generator {
	if sigma < 0 {
		panic(fmt.Sprintf("workload: negative sigma %g", sigma))
	}
	return &declarationError{inner: inner, sigma: sigma}
}

// Name implements Generator.
func (d *declarationError) Name() string {
	return fmt.Sprintf("%s/sigma=%g", d.inner.Name(), d.sigma)
}

// Next implements Generator.
func (d *declarationError) Next(id txn.ID, rng *rand.Rand) *txn.T {
	t := d.inner.Next(id, rng)
	declared := make([]float64, len(t.Steps))
	for i, s := range t.Steps {
		x := rng.NormFloat64() * d.sigma
		c := s.Cost * (1 + x)
		if c < 0 {
			c = 0
		}
		declared[i] = c
	}
	return txn.NewDeclared(t.ID, t.Steps, declared)
}

// UniformPattern builds a generator for an arbitrary user pattern: every
// variable is bound, per transaction, to a distinct partition drawn
// uniformly from [0, numParts). Used by cmd/batsim's -pattern flag.
func UniformPattern(p *txn.Pattern, numParts int) Generator {
	if n := p.NumVars(); n > numParts {
		panic(fmt.Sprintf("workload: pattern %q has %d variables but only %d partitions",
			p.Name, n, numParts))
	}
	pool := rangeParts(0, numParts)
	return &PatternGenerator{
		Label:   fmt.Sprintf("%s/NumParts=%d", p.Name, numParts),
		Pattern: p,
		BindVars: func(rng *rand.Rand, parts []txn.PartitionID) {
			distinct(rng, pool, parts)
		},
	}
}

package workload

import (
	"fmt"
	"math/rand"

	"batsched/internal/txn"
)

// Component is one class of a mixed workload: a generator, its class
// label, and its share of the arrival stream.
type Component struct {
	Class  string
	Weight float64
	Gen    Generator
}

// Mixture draws each arriving transaction from one component with
// probability proportional to its weight, remembering each transaction's
// class so the simulator can report per-class metrics (the paper's
// conclusion: "in mixed transaction processing, different schedulers are
// necessary for different classes of jobs").
//
// A Mixture instance belongs to a single simulation run.
type Mixture struct {
	Label      string
	Components []Component
	classOf    map[txn.ID]string
	total      float64
}

// NewMixture builds a mixture; weights must be positive.
func NewMixture(label string, components ...Component) (*Mixture, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("workload: empty mixture")
	}
	m := &Mixture{Label: label, Components: components, classOf: make(map[txn.ID]string)}
	for _, c := range components {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("workload: component %q weight %g", c.Class, c.Weight)
		}
		if c.Gen == nil {
			return nil, fmt.Errorf("workload: component %q has no generator", c.Class)
		}
		m.total += c.Weight
	}
	return m, nil
}

// Name implements Generator.
func (m *Mixture) Name() string { return m.Label }

// Next implements Generator.
func (m *Mixture) Next(id txn.ID, rng *rand.Rand) *txn.T {
	u := rng.Float64() * m.total
	acc := 0.0
	comp := m.Components[len(m.Components)-1]
	for _, c := range m.Components {
		acc += c.Weight
		if u < acc {
			comp = c
			break
		}
	}
	t := comp.Gen.Next(id, rng)
	m.classOf[id] = comp.Class
	return t
}

// ClassOf returns the class of a generated transaction (empty string for
// unknown ids). Pass it as sim.Config.Classify via a closure:
//
//	cfg.Classify = func(t *txn.T) string { return mix.ClassOf(t.ID) }
func (m *Mixture) ClassOf(id txn.ID) string { return m.classOf[id] }

// ShortTransactions builds a short-transaction (on-line, debit-credit
// style) generator: read one partition and update another, each touching
// a tiny fraction of the data. Costs are in objects; with ObjTime = 1 s
// and cost 0.02 a step takes 20 ms of node time — but it still locks the
// whole partition, which is exactly why mixing classes is hard.
func ShortTransactions(numParts int, stepCost float64) Generator {
	p := txn.MustParsePattern("Short", fmt.Sprintf("r(X:%g) -> w(Y:%g)", stepCost, stepCost))
	pool := rangeParts(0, numParts)
	return &PatternGenerator{
		Label:   fmt.Sprintf("Short/cost=%g", stepCost),
		Pattern: p,
		BindVars: func(rng *rand.Rand, parts []txn.PartitionID) { // X, Y
			distinct(rng, pool, parts)
		},
	}
}

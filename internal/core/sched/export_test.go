package sched

import (
	"cmp"
	"slices"

	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
)

// forgetRefusals clears a C2PL-family scheduler's refusal memos, so its
// next Request decides from scratch.
func forgetRefusals(s Scheduler) {
	b := &s.(*c2pl).wtpgBase
	for _, id := range b.graph.Nodes() {
		if r, ok := b.live.Get(id); ok {
			r.witness = r.witness[:0]
		}
	}
}

// refusalOf returns the refusal memo a C2PL-family scheduler keeps for
// id: the step refused and a copy of its witness; a nil witness when id
// is not live or holds no memo.
func refusalOf(s Scheduler, id txn.ID) (int, []wtpg.Stay) {
	if r, ok := s.(*c2pl).live.Get(id); ok && len(r.witness) > 0 {
		return r.refused, slices.Clone(r.witness)
	}
	return 0, nil
}

// edgeBetween returns the edge between a and b among edges, a graph's
// Edges (sorted by endpoints), if there is one.
func edgeBetween(edges []wtpg.Edge, a, b txn.ID) (wtpg.Edge, bool) {
	a, b = min(a, b), max(a, b)
	i, ok := slices.BinarySearchFunc(edges, [2]txn.ID{a, b}, func(e wtpg.Edge, k [2]txn.ID) int {
		return cmp.Or(cmp.Compare(e.A, k[0]), cmp.Compare(e.B, k[1]))
	})
	if !ok {
		return wtpg.Edge{}, false
	}
	return edges[i], true
}

package wtpg

import "batsched/internal/txn"

// WouldCycleFrom is CycleWitness without the witness.
func (g *Graph) WouldCycleFrom(from txn.ID, targets []txn.ID) bool {
	_, cycle := g.CycleWitness(nil, from, targets)
	return cycle
}

// ConflictDegree returns the number of transactions id conflicts with.
func (g *Graph) ConflictDegree(id txn.ID) int {
	s, ok := g.slotOf.Get(id)
	if !ok {
		return 0
	}
	return len(g.adj[s])
}

// EdgeBetween returns the edge between a and b, if any.
func (g *Graph) EdgeBetween(a, b txn.ID) (Edge, bool) {
	idx, ok := g.pair[keyOf(a, b)]
	if !ok {
		return Edge{}, false
	}
	return g.edgeOut(&g.edges[idx]), true
}

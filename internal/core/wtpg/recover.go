package wtpg

import (
	"slices"

	"batsched/internal/txn"
)

// Splice removes an aborted transaction from the graph while repairing
// the precedence relation around it. Removal alone (as Remove does for a
// commitment) is wrong for an abort: a commit discharges the
// transaction's precedence obligations, but an abort tears a node out of
// the middle of the resolved order, and the orderings that were fixed
// *through* it would silently evaporate.
//
// Splice therefore:
//
//  1. retracts every unresolved conflicting-edge of id together with the
//     node (no order was promised on those, nothing to repair);
//  2. for every resolved pair u→id and id→v, re-resolves the surviving
//     conflicting-edge (u, v) as u→v when it is still unresolved
//     ("splicing the precedence past the dead transaction"). When
//     declared is not nil and the graph holds no edge between u and v
//     (C2PL builds an edge only when it resolves it), the one their
//     declarations give, if any, is inserted first (ConflictWeights).
//
// The splice can never create a cycle: a cycle using a spliced edge u→v
// maps, by re-expanding u→v into u→id→v, onto a cycle through id in the
// pre-abort graph, which every scheduler keeps acyclic. Pairs already
// resolved (in either direction) are left untouched — an opposite
// resolution v→u plus u→id→v would likewise have been a pre-abort cycle,
// so in practice only unresolved pairs are ever seen here.
//
// The applied resolutions are returned in deterministic (sorted) order;
// each one also fires OnResolve like any other resolution. Splicing an
// unknown id is a no-op.
func (g *Graph) Splice(id txn.ID, declared func(txn.ID) *txn.T) []Resolution {
	s, ok := g.slotOf.Get(id)
	if !ok {
		return nil
	}
	preds := g.Predecessors(id)
	succs := make([]txn.ID, 0, len(g.out[s]))
	for _, idx := range g.out[s] {
		succs = append(succs, g.ids[g.edges[idx].toSlot()])
	}
	slices.Sort(succs)
	g.Remove(id)
	var spliced []Resolution
	for _, u := range preds {
		for _, v := range succs {
			var du, dv *txn.T
			if declared != nil {
				du, dv = declared(u), declared(v)
			}
			if ok, _ := g.resolve(u, v, du, dv); ok {
				spliced = append(spliced, Resolution{From: u, To: v})
			}
		}
	}
	return spliced
}

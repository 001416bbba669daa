package wtpg

import (
	"sort"

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
//     conflicting-edge (u, v) as u→v when one exists and is still
//     unresolved ("splicing the precedence past the dead transaction").
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
func (g *Graph) Splice(id txn.ID) []Resolution {
	s, ok := g.slotOf.Get(id)
	if !ok {
		return nil
	}
	preds := make([]txn.ID, 0, len(g.in[s]))
	for _, idx := range g.in[s] {
		preds = append(preds, g.ids[g.edges[idx].fromSlot()])
	}
	succs := make([]txn.ID, 0, len(g.out[s]))
	for _, idx := range g.out[s] {
		succs = append(succs, g.ids[g.edges[idx].toSlot()])
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
	g.Remove(id)
	var spliced []Resolution
	for _, u := range preds {
		for _, v := range succs {
			if u == v {
				continue
			}
			idx, ok := g.pair[keyOf(u, v)]
			if !ok || g.edges[idx].dir != Unresolved {
				continue
			}
			if err := g.Resolve(u, v); err == nil {
				spliced = append(spliced, Resolution{From: u, To: v})
			}
		}
	}
	return spliced
}

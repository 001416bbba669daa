// Package estimate implements the paper's E(q) function (§3.3): the
// estimated degree of data/resource contention of the present schedule if
// a lock-request q were granted now.
//
// Given the WTPG and the resolutions granting q would imply, E(q) is
// computed as:
//
//	Step 1: hypothetically grant q; if that creates a precedence cycle
//	        (a predicted deadlock) E(q) = ∞. Otherwise identify
//	        before(T) and after(T) of q's transaction T.
//	Step 2: resolve every conflicting-edge (Ti,Tj) with Ti ∈ before(T)
//	        and Tj ∈ after(T) into Ti→Tj.
//	Step 3: delete the remaining conflicting-edges; E(q) is the length of
//	        the critical path from T0 to Tf.
//
// The work is wtpg.Graph.Estimate's, and §3.4's argument that the
// decision cost must stay small shapes it. Every edge steps 1 and 2 add
// ends in after(T), so the graph's own cached critical-path pass gives
// every other transaction's distance unchanged: one walk builds after(T)
// and doubles as the cycle test, one builds before(T), and only after(T)
// is re-relaxed, over its own adjacency lists — O(|after(T)| and its
// edges) plus a scan of the cached order, with no pass over the whole
// graph unless a mutation since the last one makes the cache stale. No
// hypothetical edge is ever written to the graph, and nothing is
// allocated in the steady state.
package estimate

import (
	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
)

// E evaluates E(q) for a lock-request of transaction t whose grant would
// resolve t→target for every target; +Inf marks a predicted deadlock.
// The graph g is not modified.
func E(g *wtpg.Graph, t txn.ID, targets []txn.ID) float64 {
	return g.Estimate(t, targets)
}

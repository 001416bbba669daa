package wtpg

import (
	"cmp"
	"fmt"
	"slices"

	"batsched/internal/core/chainopt"
	"batsched/internal/txn"
)

// Chain is a maximal path of the undirected conflict graph, in path order.
// Isolated transactions form single-element chains.
type Chain []txn.ID

// Chains decomposes the conflict graph (all conflicting pairs, resolved or
// not) into chains. ok is false when the graph is not in the paper's chain
// form (Definition 2): some transaction conflicts with more than two
// others, or the conflicts form a cycle. On failure the returned chains
// are nil.
//
// The result is deterministic: each path starts at its smaller-id
// endpoint, and chains are sorted by their first element. The chains and
// the slice holding them are the graph's own buffers, valid until the next
// call to Chains.
func (g *Graph) Chains() (chains []Chain, ok bool) {
	for s, id := range g.ids {
		if id != 0 && len(g.adj[s]) > 2 {
			return nil, false
		}
	}
	g.visited.reset(len(g.ids))
	// Every live node lands in ids at most once, so with room for all of
	// them the chains sliced from it never move.
	ids := slices.Grow(g.chainIDs[:0], g.nLive)
	chains = g.chains[:0]
	for s, id := range g.ids {
		if id == 0 || g.visited.has(int32(s)) || len(g.adj[s]) > 1 {
			continue
		}
		start := len(ids)
		ids = append(ids, id)
		g.visited.add(int32(s))
		prev, cur := int32(-1), int32(s)
		for {
			next, found := g.nextNeighbourSlot(cur, prev)
			if !found {
				break
			}
			if g.visited.has(next) {
				return nil, false
			}
			ids = append(ids, g.ids[next])
			g.visited.add(next)
			prev, cur = cur, next
		}
		chain := Chain(ids[start:len(ids):len(ids)])
		if chain[len(chain)-1] < chain[0] {
			slices.Reverse(chain)
		}
		chains = append(chains, chain)
	}
	g.chainIDs, g.chains = ids, chains
	// Every node of degree 2 not reached from an endpoint lies on a cycle.
	if len(ids) != g.nLive {
		return nil, false
	}
	slices.SortFunc(chains, func(a, b Chain) int { return cmp.Compare(a[0], b[0]) })
	return chains, true
}

// ChainInput fills in with the optimiser's input for ch, one of the chains
// Chains returned: R[k] = w(T0→ch[k]), Down[k] and Up[k] the weights of
// the edge between ch[k] and ch[k+1] in each direction, and Fixed[k] the
// orientation an earlier grant resolved it to (Free while unresolved).
// Each edge is found among its members' adjacency entries, at most two
// in chain form. The slices of in are reused, so a caller solving many
// chains refills one value. It panics if ch is empty or not a path of the
// graph.
func (g *Graph) ChainInput(ch Chain, in *chainopt.Chain) {
	n := len(ch)
	in.R = slices.Grow(in.R[:0], n)[:n]
	in.Down, in.Up = slices.Grow(in.Down[:0], n-1)[:n-1], slices.Grow(in.Up[:0], n-1)[:n-1]
	in.Fixed = slices.Grow(in.Fixed[:0], n-1)[:n-1]
	var prev int32
	for k, id := range ch {
		cur, ok := g.slotOf.Get(id)
		var e *edgeRec // the edge from ch[k-1] to ch[k]
		if ok && k > 0 {
			if idx := g.edgeBetween(prev, cur); idx >= 0 {
				e = &g.edges[idx]
			}
		}
		if !ok || k > 0 && e == nil {
			panic(fmt.Sprintf("wtpg: ChainInput: %v is not a path of the graph", ch))
		}
		in.R[k] = g.w0[cur]
		if e != nil {
			in.Down[k-1], in.Up[k-1], in.Fixed[k-1] = e.wab, e.wba, chainopt.Free
			if e.sa != prev {
				in.Down[k-1], in.Up[k-1] = e.wba, e.wab
			}
			if e.dir != Unresolved {
				in.Fixed[k-1] = chainopt.Up
				if e.fromSlot() == prev {
					in.Fixed[k-1] = chainopt.Down
				}
			}
		}
		prev = cur
	}
}

// StaysChainForm reports whether a chain-form graph would still be in
// chain form after gaining one node that conflicts with exactly the given
// live transactions (distinct ids) — what AddNode, one AddConflict per
// neighbour and Chains would answer, decided without touching the graph
// and without allocating. The newcomer may have at most two neighbours,
// each must be an endpoint of its chain (its own degree rises to at most
// two), and two neighbours must lie on different chains or the newcomer
// closes a cycle: that is one walk from the first along its chain, which
// must not arrive at the second. The answer is only meaningful while the
// graph is in chain form; an id not in the graph counts as a violation.
func (g *Graph) StaysChainForm(neighbours []txn.ID) bool {
	if len(neighbours) > 2 {
		return false
	}
	var slots [2]int32
	for i, id := range neighbours {
		s, ok := g.slotOf.Get(id)
		if !ok || len(g.adj[s]) > 1 {
			return false
		}
		slots[i] = s
	}
	if len(neighbours) < 2 {
		return true
	}
	// slots[0] has degree ≤ 1, so the walk has one direction; it is bounded
	// by the node count so a graph already out of chain form cannot spin it.
	prev, cur := int32(-1), slots[0]
	for range g.nLive {
		next, found := g.nextNeighbourSlot(cur, prev)
		if !found {
			return true
		}
		if next == slots[1] {
			return false
		}
		prev, cur = cur, next
	}
	return false
}

// nextNeighbourSlot returns the neighbour slot of cur other than prev
// (prev < 0 means no predecessor). With degree at most 2 there is at most
// one such neighbour.
func (g *Graph) nextNeighbourSlot(cur, prev int32) (int32, bool) {
	for _, idx := range g.adj[cur] {
		e := &g.edges[idx]
		other := e.sa
		if other == cur {
			other = e.sb
		}
		if other == prev {
			continue
		}
		return other, true
	}
	return 0, false
}

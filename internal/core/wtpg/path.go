package wtpg

import (
	"fmt"
	"math"
	"strings"

	"batsched/internal/txn"
)

// Estimate returns the paper's E(q) (§3.3) for a lock-request of t whose
// grant would resolve t→target for every target: the critical path once
// those resolutions (a zero-weight one for a target sharing no
// conflicting-edge with t) and step 2's are added — every unresolved
// conflicting-edge from before(t) into after(t) oriented forward, the
// rest ignored. It is +Inf when the grant would close a precedence cycle
// (a predicted deadlock), when a target is not in the graph or t is not
// while it has targets, and when the resolved edges are cyclic already;
// t not in the graph with no targets reads the plain critical path. The
// graph is not modified, and the call allocates nothing once the scratch
// has grown.
//
// Every hypothetical edge runs from before(t) ∪ {t} into after(t), which
// is closed under successors, so a path crosses at most one of them.
// Transactions outside after(t) keep the distance of the cached
// CriticalPath pass, and only after(t) is re-relaxed, in that pass's
// topological order: each distance is the same float maximum over the
// same sums a full pass over the hypothetical graph would take.
func (g *Graph) Estimate(t txn.ID, targets []txn.ID) float64 {
	base, err := g.CriticalPath()
	st, live := g.slotOf.Get(t)
	if err != nil || (!live && len(targets) > 0) {
		return math.Inf(1)
	}
	if !live {
		return base
	}
	n := len(g.ids)
	// after(t): every transaction reachable from t's resolved successors
	// and the targets. Reaching t itself closes a cycle.
	after := &g.visited
	after.reset(n)
	g.targets.reset(n)
	stack := g.stackBuf[:0]
	for _, idx := range g.out[st] {
		stack = append(stack, g.edges[idx].toSlot())
	}
	for _, to := range targets {
		s, ok := g.slotOf.Get(to)
		if !ok {
			g.stackBuf = stack[:0]
			return math.Inf(1)
		}
		g.targets.add(s)
		stack = append(stack, s)
	}
	if g.reach(after, stack, g.out, st) {
		return math.Inf(1)
	}
	// before(t): t's resolved predecessors and, transitively, theirs.
	g.before.reset(n)
	stack = g.stackBuf[:0]
	for _, idx := range g.in[st] {
		stack = append(stack, g.edges[idx].fromSlot())
	}
	g.reach(&g.before, stack, g.in, -1)

	if cap(g.estDist) < n {
		g.estDist = make([]float64, n)
	}
	dist, est := g.distBuf[:n], g.estDist[:n]
	best := base
	for _, v := range g.topoBuf {
		if !after.has(v) {
			continue
		}
		d := g.w0[v]
		for _, idx := range g.in[v] {
			e := &g.edges[idx]
			u := e.fromSlot()
			du := dist[u]
			if after.has(u) {
				du = est[u]
			}
			if c := du + e.weight(); c > d {
				d = c
			}
		}
		// The hypothetical edges into v: t→v for a target, and the
		// straddling ones. A target with no conflicting-edge to t gets a
		// zero-weight t→v.
		virtual := g.targets.has(v)
		for _, idx := range g.adj[v] {
			e := &g.edges[idx]
			u, w := e.sa, e.wab // u is v's neighbour, w the weight of u→v
			if u == v {
				u, w = e.sb, e.wba
			}
			if u == st {
				virtual = false
			}
			if e.dir == Unresolved && (g.before.has(u) || u == st && g.targets.has(v)) {
				if c := dist[u] + w; c > d {
					d = c
				}
			}
		}
		if virtual && dist[st] > d {
			d = dist[st]
		}
		est[v] = d
		if d > best {
			best = d
		}
	}
	return best
}

// CriticalPathTrace returns the longest T0→Tf path itself: the sequence
// of transactions along it and its length. The first node is entered
// from T0 (contributing its w(T0→Ti)); subsequent hops follow resolved
// precedence-edges. Deterministic: ties prefer smaller transaction ids.
//
// The trace reuses the cached topological order and distance array of
// CriticalPath when they are still valid for the current epoch, so
// tracing after an unchanged-length check costs one predecessor sweep.
func (g *Graph) CriticalPathTrace() ([]txn.ID, float64, error) {
	if !g.cpValid || g.cpEpoch != g.epoch {
		g.recomputeCP()
	}
	if !g.cpOK {
		return nil, 0, errCycle
	}
	n := len(g.ids)
	dist := g.distBuf[:n]
	// Recover each node's best predecessor under the reference engine's
	// tie-break: a predecessor only displaces the implicit T0 entry when
	// it is strictly better, and equal-length predecessors prefer the
	// smaller id. Both rules are independent of edge iteration order.
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = -1
	}
	for _, u := range g.topoBuf {
		best := g.w0[u]
		bestPrev := int32(-1)
		for _, idx := range g.in[u] {
			e := &g.edges[idx]
			v := e.fromSlot()
			cand := dist[v] + e.weight()
			if cand > best || (cand == best && bestPrev >= 0 && g.ids[v] < g.ids[bestPrev]) {
				best = cand
				bestPrev = v
			}
		}
		prev[u] = bestPrev
	}
	endSlot := int32(-1)
	bestLen := -1.0
	for _, u := range g.topoBuf {
		if dist[u] > bestLen || (dist[u] == bestLen && g.ids[u] < g.ids[endSlot]) {
			bestLen = dist[u]
			endSlot = u
		}
	}
	if bestLen < 0 {
		return nil, 0, nil // empty graph: the T0→Tf path has length 0
	}
	var path []txn.ID
	for u := endSlot; ; {
		path = append(path, g.ids[u])
		if prev[u] < 0 {
			break
		}
		u = prev[u]
	}
	// Reverse into T0→Tf order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, bestLen, nil
}

// FormatPath renders a path as "T0 -> T1 -> T2 -> Tf (length 6)".
func FormatPath(path []txn.ID, length float64) string {
	var b strings.Builder
	b.WriteString("T0")
	for _, id := range path {
		fmt.Fprintf(&b, " -> %v", id)
	}
	fmt.Fprintf(&b, " -> Tf (length %g)", length)
	return b.String()
}

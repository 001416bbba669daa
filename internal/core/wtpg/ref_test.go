package wtpg

import (
	"fmt"
	"sort"

	"batsched/internal/txn"
)

// Ref is the original map-based WTPG engine, kept as the reference
// implementation for the dense slot engine (Graph). The
// differential and property tests (quick_test.go, and the E(q)
// differential in estimate_diff_test.go) drive both engines with
// identical operation sequences and require exact agreement on every
// observable (critical path, traces, predecessors, chains, splices, cycle
// tests). It lives in a _test.go file: no program reaches it (DESIGN.md
// §15), and the package's external tests still see it.
//
// Ref trades allocation behaviour for obvious correctness: every
// operation manipulates Go maps directly, mirroring the paper's set
// notation, including the before(T)/after(T) sets and the general
// multi-source cycle test that Graph does not need.
type Ref struct {
	w0    map[txn.ID]float64
	edges map[pairKey]*Edge
	adj   map[txn.ID]map[txn.ID]*Edge // both endpoints point at the shared Edge
	// out/in index only the resolved precedence-edges so traversals never
	// touch the (much larger) set of unresolved conflicting-edges.
	out map[txn.ID]map[txn.ID]*Edge
	in  map[txn.ID]map[txn.ID]*Edge
	// stackBuf is scratch space for WouldCycleFrom (single-threaded use).
	stackBuf []txn.ID
	// OnResolve, if set, observes every conflicting-edge resolution.
	OnResolve func(from, to txn.ID)
}

// pairKey names an unordered transaction pair, smaller id first.
type pairKey struct{ a, b txn.ID }

func keyOf(a, b txn.ID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewRef returns an empty reference WTPG.
func NewRef() *Ref {
	return &Ref{
		w0:    make(map[txn.ID]float64),
		edges: make(map[pairKey]*Edge),
		adj:   make(map[txn.ID]map[txn.ID]*Edge),
		out:   make(map[txn.ID]map[txn.ID]*Edge),
		in:    make(map[txn.ID]map[txn.ID]*Edge),
	}
}

// refOf copies g's nodes, weights, edges and resolutions into a Ref.
func refOf(g *Graph) *Ref {
	r := NewRef()
	for _, id := range g.Nodes() {
		_ = r.AddNode(id, g.W0(id))
	}
	for _, e := range g.Edges() {
		_ = r.AddConflict(e.A, e.B, e.WAB, e.WBA)
		if e.Dir != Unresolved {
			_ = r.Resolve(e.From(), e.To())
		}
	}
	return r
}

// Predecessors returns id's direct resolved predecessors, sorted.
func (g *Ref) Predecessors(id txn.ID) []txn.ID {
	var out []txn.ID
	for u := range g.in[id] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of live transactions in the graph.
func (g *Ref) Len() int { return len(g.w0) }

// Has reports whether id is in the graph.
func (g *Ref) Has(id txn.ID) bool {
	_, ok := g.w0[id]
	return ok
}

// Nodes returns the live transaction ids, sorted.
func (g *Ref) Nodes() []txn.ID {
	out := make([]txn.ID, 0, len(g.w0))
	for id := range g.w0 {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddNode inserts a transaction with its initial w(T0→Ti) weight.
func (g *Ref) AddNode(id txn.ID, w0 float64) error {
	if g.Has(id) {
		return fmt.Errorf("wtpg: node %v already present", id)
	}
	if w0 < 0 {
		return fmt.Errorf("wtpg: negative w0 %g for %v", w0, id)
	}
	g.w0[id] = w0
	g.adj[id] = make(map[txn.ID]*Edge)
	g.out[id] = make(map[txn.ID]*Edge)
	g.in[id] = make(map[txn.ID]*Edge)
	return nil
}

// W0 returns w(T0→Ti).
func (g *Ref) W0(id txn.ID) float64 { return g.w0[id] }

// SetW0 overwrites w(T0→Ti).
func (g *Ref) SetW0(id txn.ID, w float64) {
	if !g.Has(id) {
		panic(fmt.Sprintf("wtpg: SetW0 on unknown %v", id))
	}
	if w < 0 {
		w = 0
	}
	g.w0[id] = w
}

// AddW0 adjusts w(T0→Ti) by delta, clamped at zero; an unknown id is
// ignored.
func (g *Ref) AddW0(id txn.ID, delta float64) {
	if g.Has(id) {
		g.SetW0(id, g.w0[id]+delta)
	}
}

// AddConflict inserts the conflicting-edge (a,b).
func (g *Ref) AddConflict(a, b txn.ID, wab, wba float64) error {
	if a == b {
		return fmt.Errorf("wtpg: self-conflict on %v", a)
	}
	if !g.Has(a) || !g.Has(b) {
		return fmt.Errorf("wtpg: conflict (%v,%v) with unknown node", a, b)
	}
	k := keyOf(a, b)
	if _, ok := g.edges[k]; ok {
		return fmt.Errorf("wtpg: conflict (%v,%v) already present", a, b)
	}
	e := &Edge{A: k.a, B: k.b}
	if a == k.a {
		e.WAB, e.WBA = wab, wba
	} else {
		e.WAB, e.WBA = wba, wab
	}
	g.edges[k] = e
	g.adj[a][b] = e
	g.adj[b][a] = e
	return nil
}

// EdgeBetween returns the edge between a and b, if any.
func (g *Ref) EdgeBetween(a, b txn.ID) (Edge, bool) {
	e, ok := g.edges[keyOf(a, b)]
	if !ok {
		return Edge{}, false
	}
	return *e, true
}

// Edges returns copies of all edges, sorted by endpoint ids.
func (g *Ref) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Resolve orients the conflicting-edge between from and to as from→to.
func (g *Ref) Resolve(from, to txn.ID) error {
	e, ok := g.edges[keyOf(from, to)]
	if !ok {
		return fmt.Errorf("wtpg: no conflict between %v and %v", from, to)
	}
	want := AtoB
	if from == e.B {
		want = BtoA
	}
	switch e.Dir {
	case Unresolved:
		e.Dir = want
		g.out[e.From()][e.To()] = e
		g.in[e.To()][e.From()] = e
		if g.OnResolve != nil {
			g.OnResolve(e.From(), e.To())
		}
		return nil
	case want:
		return nil
	default:
		return fmt.Errorf("wtpg: (%v,%v) already resolved %v→%v", e.A, e.B, e.From(), e.To())
	}
}

// Resolved reports the orientation between a and b.
func (g *Ref) Resolved(a, b txn.ID) (from, to txn.ID, ok bool) {
	e, found := g.edges[keyOf(a, b)]
	if !found || e.Dir == Unresolved {
		return 0, 0, false
	}
	return e.From(), e.To(), true
}

// Remove deletes a transaction and all its edges.
func (g *Ref) Remove(id txn.ID) {
	for other := range g.adj[id] {
		delete(g.adj[other], id)
		delete(g.out[other], id)
		delete(g.in[other], id)
		delete(g.edges, keyOf(id, other))
	}
	delete(g.adj, id)
	delete(g.out, id)
	delete(g.in, id)
	delete(g.w0, id)
}

// successors iterates over resolved out-edges of id.
func (g *Ref) successors(id txn.ID, fn func(to txn.ID, w float64)) {
	for other, e := range g.out[id] {
		fn(other, e.Weight())
	}
}

// predecessors iterates over resolved in-edges of id.
func (g *Ref) predecessors(id txn.ID, fn func(from txn.ID, w float64)) {
	for other, e := range g.in[id] {
		fn(other, e.Weight())
	}
}

// After returns the set of transactions that id precedes.
func (g *Ref) After(id txn.ID) map[txn.ID]bool {
	out := make(map[txn.ID]bool)
	var visit func(txn.ID)
	visit = func(u txn.ID) {
		g.successors(u, func(v txn.ID, _ float64) {
			if !out[v] {
				out[v] = true
				visit(v)
			}
		})
	}
	visit(id)
	return out
}

// Before returns the set of transactions preceding id.
func (g *Ref) Before(id txn.ID) map[txn.ID]bool {
	out := make(map[txn.ID]bool)
	var visit func(txn.ID)
	visit = func(u txn.ID) {
		g.predecessors(u, func(v txn.ID, _ float64) {
			if !out[v] {
				out[v] = true
				visit(v)
			}
		})
	}
	visit(id)
	return out
}

// WouldCycle reports whether the precedence-edges plus the proposed extra
// resolutions contain a directed cycle.
func (g *Ref) WouldCycle(extra []Resolution) bool {
	overlay := make(map[txn.ID][]txn.ID, 4)
	any := false
	for _, r := range extra {
		if e, ok := g.edges[keyOf(r.From, r.To)]; ok && e.Dir != Unresolved {
			if e.From() == r.To {
				return true // contradicts an existing precedence-edge
			}
			continue // already resolved this way
		}
		overlay[r.From] = append(overlay[r.From], r.To)
		any = true
	}
	if !any {
		return false
	}
	for f, targets := range overlay {
		visited := make(map[txn.ID]bool, 8)
		stack := append([]txn.ID(nil), targets...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if u == f {
				return true
			}
			if visited[u] {
				continue
			}
			visited[u] = true
			g.successors(u, func(v txn.ID, _ float64) {
				if !visited[v] {
					stack = append(stack, v)
				}
			})
			for _, v := range overlay[u] {
				if !visited[v] {
					stack = append(stack, v)
				}
			}
		}
	}
	return false
}

// WouldCycleFrom is the single-source form of WouldCycle.
func (g *Ref) WouldCycleFrom(from txn.ID, targets []txn.ID) bool {
	outF, inF := g.out[from], g.in[from]
	stack := g.stackBuf[:0]
	for _, to := range targets {
		if _, ok := inF[to]; ok {
			return true // to→from already resolved: contradiction
		}
		if _, ok := outF[to]; ok {
			continue // already resolved this way
		}
		stack = append(stack, to)
	}
	if len(stack) == 0 {
		g.stackBuf = stack
		return false
	}
	visited := make(map[txn.ID]bool, 8)
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == from {
			found = true
			break
		}
		if visited[u] {
			continue
		}
		visited[u] = true
		for v := range g.out[u] {
			if !visited[v] {
				stack = append(stack, v)
			}
		}
	}
	g.stackBuf = stack[:0]
	return found
}

// CriticalPath returns the length of the longest T0→Tf path over the
// resolved precedence-edges.
func (g *Ref) CriticalPath() (float64, error) {
	order, err := g.topoOrder()
	if err != nil {
		return 0, err
	}
	dist := make(map[txn.ID]float64, len(order))
	best := 0.0
	for _, u := range order {
		d := g.w0[u]
		g.predecessors(u, func(v txn.ID, w float64) {
			if cand := dist[v] + w; cand > d {
				d = cand
			}
		})
		dist[u] = d
		if d > best {
			best = d
		}
	}
	return best, nil
}

// topoOrder returns the nodes in a topological order of the resolved
// precedence-edges (ties broken by id for determinism).
func (g *Ref) topoOrder() ([]txn.ID, error) {
	indeg := make(map[txn.ID]int, len(g.w0))
	for id := range g.w0 {
		indeg[id] = 0
	}
	for _, e := range g.edges {
		if e.Dir != Unresolved {
			indeg[e.To()]++
		}
	}
	var ready []txn.ID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var order []txn.ID
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		var next []txn.ID
		g.successors(u, func(v txn.ID, _ float64) {
			indeg[v]--
			if indeg[v] == 0 {
				next = append(next, v)
			}
		})
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		ready = append(ready, next...)
	}
	if len(order) != len(g.w0) {
		return nil, fmt.Errorf("wtpg: precedence-edges contain a cycle")
	}
	return order, nil
}

// Clone returns a deep copy of the reference graph.
func (g *Ref) Clone() *Ref {
	c := NewRef()
	for id, w := range g.w0 {
		c.w0[id] = w
		c.adj[id] = make(map[txn.ID]*Edge, len(g.adj[id]))
		c.out[id] = make(map[txn.ID]*Edge, len(g.out[id]))
		c.in[id] = make(map[txn.ID]*Edge, len(g.in[id]))
	}
	for k, e := range g.edges {
		ce := *e
		c.edges[k] = &ce
		c.adj[k.a][k.b] = &ce
		c.adj[k.b][k.a] = &ce
		if ce.Dir != Unresolved {
			c.out[ce.From()][ce.To()] = &ce
			c.in[ce.To()][ce.From()] = &ce
		}
	}
	return c
}

// CriticalPathTrace returns the longest T0→Tf path itself.
func (g *Ref) CriticalPathTrace() ([]txn.ID, float64, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, 0, err
	}
	dist := make(map[txn.ID]float64, len(order))
	prev := make(map[txn.ID]txn.ID, len(order))
	hasPrev := make(map[txn.ID]bool, len(order))
	for _, u := range order {
		best := g.w0[u]
		var bestPrev txn.ID
		found := false
		g.predecessors(u, func(v txn.ID, w float64) {
			cand := dist[v] + w
			if cand > best || (cand == best && found && v < bestPrev) {
				best = cand
				bestPrev = v
				found = true
			}
		})
		dist[u] = best
		if found {
			prev[u] = bestPrev
			hasPrev[u] = true
		}
	}
	var endNode txn.ID
	bestLen := -1.0
	for _, u := range order {
		if dist[u] > bestLen || (dist[u] == bestLen && u < endNode) {
			bestLen = dist[u]
			endNode = u
		}
	}
	if bestLen < 0 {
		return nil, 0, nil // empty graph: the T0→Tf path has length 0
	}
	var path []txn.ID
	for u := endNode; ; {
		path = append(path, u)
		if !hasPrev[u] {
			break
		}
		u = prev[u]
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, bestLen, nil
}

// Chains decomposes the conflict graph into chains (see Graph.Chains).
func (g *Ref) Chains() (chains []Chain, ok bool) {
	for id := range g.w0 {
		if len(g.adj[id]) > 2 {
			return nil, false
		}
	}
	visited := make(map[txn.ID]bool, len(g.w0))
	for _, id := range g.Nodes() {
		if visited[id] || len(g.adj[id]) > 1 {
			continue
		}
		chain := Chain{id}
		visited[id] = true
		var prev txn.ID
		cur, hasPrev := id, false
		for {
			next, found := g.nextNeighbour(cur, prev, hasPrev)
			if !found {
				break
			}
			if visited[next] {
				return nil, false
			}
			chain = append(chain, next)
			visited[next] = true
			prev, cur, hasPrev = cur, next, true
		}
		chains = append(chains, chain)
	}
	for id := range g.w0 {
		if !visited[id] {
			return nil, false
		}
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i][0] < chains[j][0] })
	return chains, true
}

// nextNeighbour returns the neighbour of cur other than prev.
func (g *Ref) nextNeighbour(cur, prev txn.ID, hasPrev bool) (txn.ID, bool) {
	for other := range g.adj[cur] {
		if hasPrev && other == prev {
			continue
		}
		return other, true
	}
	return 0, false
}

// ConflictDegree returns the number of transactions id conflicts with.
func (g *Ref) ConflictDegree(id txn.ID) int { return len(g.adj[id]) }

// Splice removes an aborted transaction while repairing the precedence
// relation around it (see Graph.Splice).
func (g *Ref) Splice(id txn.ID) []Resolution {
	if !g.Has(id) {
		return nil
	}
	preds := make([]txn.ID, 0, len(g.in[id]))
	for u := range g.in[id] {
		preds = append(preds, u)
	}
	succs := make([]txn.ID, 0, len(g.out[id]))
	for v := range g.out[id] {
		succs = append(succs, v)
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
			e, ok := g.edges[keyOf(u, v)]
			if !ok || e.Dir != Unresolved {
				continue
			}
			if err := g.Resolve(u, v); err == nil {
				spliced = append(spliced, Resolution{From: u, To: v})
			}
		}
	}
	return spliced
}

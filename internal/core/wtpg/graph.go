// Package wtpg implements the paper's Weighted Transaction Precedence
// Graph (§3.1, Definition 1).
//
// Nodes are live transactions; the initial transaction T0 and the final
// transaction Tf are implicit. Between two transactions that issued
// conflicting lock-declarations there is a *conflicting-edge* — a pair of
// candidate directed edges (Ti→Tj, Tj→Ti), each carrying a weight in
// objects. When the serialization order between the two is determined, the
// conflicting-edge is *resolved* into a single precedence-edge. The weight
// w(T0→Ti) — the number of objects Ti must still access before commit — is
// maintained live as the transaction processes objects. The paper's cost
// model makes all w(Ti→Tf) zero, so Tf edges carry no weight here.
//
// The length of the critical (longest) path from T0 to Tf estimates the
// earliest possible completion time of the schedule and therefore the
// degree of data/resource contention.
//
// Graph is the one engine: live transactions occupy dense integer slots
// (freed on commit/abort, reused), edges live in a slab indexed by small
// ints, adjacency is slice-based, traversal scratch (stacks,
// generation-stamped visited marks, topological buffers) is owned by the
// graph and reused, and the critical-path length is cached under a
// mutation counter so re-reads between mutations are O(1). The original
// map-based engine, Ref, lives in the package's tests (ref_test.go) as
// the reference the differential tests hold Graph to. See
// docs/PERFORMANCE.md for the design and its invalidation rules.
package wtpg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"batsched/internal/idmap"
	"batsched/internal/txn"
)

// Direction orients a conflicting-edge when it is resolved.
type Direction int8

const (
	// Unresolved means the conflicting-edge has not been oriented yet.
	Unresolved Direction = iota
	// AtoB resolves the pair (A,B) into A→B (A precedes B). A is the
	// smaller transaction id of the pair.
	AtoB
	// BtoA resolves the pair (A,B) into B→A.
	BtoA
)

func (d Direction) String() string {
	switch d {
	case AtoB:
		return "A->B"
	case BtoA:
		return "B->A"
	default:
		return "unresolved"
	}
}

// Edge is a conflicting-edge or, once resolved, a precedence-edge between
// the transaction pair (A, B) with A < B. WAB is the weight of the
// candidate edge A→B ("after A has committed, B must access WAB objects
// before B commits"); WBA likewise for B→A.
type Edge struct {
	A, B     txn.ID
	WAB, WBA float64
	Dir      Direction
}

// Weight returns the weight of the resolved precedence-edge. It panics on
// an unresolved edge.
func (e Edge) Weight() float64 {
	switch e.Dir {
	case AtoB:
		return e.WAB
	case BtoA:
		return e.WBA
	}
	panic("wtpg: Weight of unresolved edge")
}

// From and To return the endpoints of the resolved precedence-edge.
func (e Edge) From() txn.ID {
	if e.Dir == BtoA {
		return e.B
	}
	return e.A
}

// To returns the successor endpoint of the resolved precedence-edge.
func (e Edge) To() txn.ID {
	if e.Dir == BtoA {
		return e.A
	}
	return e.B
}

type pairKey struct{ a, b txn.ID }

func keyOf(a, b txn.ID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Resolution is a proposed orientation "From precedes To" of the
// conflicting-edge between From and To.
type Resolution struct {
	From, To txn.ID
}

// errCycle is the shared cycle error so the cached critical-path fast
// path never allocates.
var errCycle = errors.New("wtpg: precedence-edges contain a cycle")

// edgeRec is a slab-resident conflicting-edge. sa/sb are the slots of the
// endpoints A (smaller id) and B. The pos* fields are the edge's index in
// each endpoint's adjacency list (posA in adj[sa], posB in adj[sb]) and,
// once resolved, in the precedence indices (posOut in out[fromSlot], posIn
// in in[toSlot]) so removal is a swap-delete, never a scan.
type edgeRec struct {
	sa, sb     int32
	wab, wba   float64
	dir        Direction
	live       bool
	posA, posB int32
	posOut     int32
	posIn      int32
}

func (e *edgeRec) fromSlot() int32 {
	if e.dir == BtoA {
		return e.sb
	}
	return e.sa
}

func (e *edgeRec) toSlot() int32 {
	if e.dir == BtoA {
		return e.sa
	}
	return e.sb
}

func (e *edgeRec) weight() float64 {
	if e.dir == BtoA {
		return e.wba
	}
	return e.wab
}

// markset is a generation-stamped visited set over slots: clearing is a
// single counter increment, membership is one slice read, and the backing
// array is reused across traversals.
type markset struct {
	marks []uint32
	gen   uint32
}

// reset clears the set and sizes it for n slots.
func (m *markset) reset(n int) {
	if len(m.marks) < n {
		m.marks = make([]uint32, n+n/2+8)
	}
	m.gen++
	if m.gen == 0 { // wrapped: stamp array is stale, wipe it once
		for i := range m.marks {
			m.marks[i] = 0
		}
		m.gen = 1
	}
}

func (m *markset) has(s int32) bool { return m.marks[s] == m.gen }
func (m *markset) add(s int32)      { m.marks[s] = m.gen }

// Graph is a WTPG over live transactions. It is not safe for concurrent
// use; the simulation is single-threaded.
type Graph struct {
	slotOf idmap.Map[int32] // id → slot
	ids    []txn.ID         // slot → id; 0 marks a free slot (zero ID reserved)
	inc    []uint32         // slot → incarnation, advanced by every AddNode (Stay)
	w0     []float64        // slot → w(T0→Ti)
	free   []int32          // reusable slots
	nLive  int

	edges     []edgeRec // edge slab
	freeEdges []int32   // reusable slab entries
	pair      map[pairKey]int32

	adj [][]int32 // slot → slab indices of all conflicting-edges
	out [][]int32 // slot → slab indices of resolved out-edges
	in  [][]int32 // slot → slab indices of resolved in-edges

	// muts counts mutations (AddNode/AddConflict/Resolve/Remove/SetW0);
	// caches stamped with it are valid while it stands still.
	muts uint64

	// Cached critical path: value, cycle flag, and the topological order
	// and per-slot distances of the pass that produced it (reused by
	// CriticalPathTrace). Valid while cpMuts == muts.
	cpMuts  uint64
	cpValid bool
	cpLen   float64
	cpOK    bool
	topoBuf []int32
	distBuf []float64

	// Traversal scratch (single-threaded use). Estimate marks after(t)
	// in visited, before(t) and its targets in their own sets, and keeps
	// after(t)'s re-relaxed distances in estDist. CycleWitness marks the
	// requester's resolved predecessors in before and successors in
	// targets, its search's slots in visited, and the slot that pushed
	// each of them in parent.
	indegBuf []int32
	stackBuf []int32
	parent   []int32
	visited  markset
	before   markset
	targets  markset
	estDist  []float64
	chainIDs []txn.ID // Chains' result: every chain's ids, back to back
	chains   []Chain

	// OnResolve, if set, observes every conflicting-edge resolution
	// from→to at the moment the precedence becomes permanent (used by
	// the observability layer; nil costs one branch per resolution).
	OnResolve func(from, to txn.ID)
}

// New returns an empty WTPG.
func New() *Graph {
	return &Graph{pair: make(map[pairKey]int32)}
}

// Len returns the number of live transactions in the graph.
func (g *Graph) Len() int { return g.nLive }

// Has reports whether id is in the graph.
func (g *Graph) Has(id txn.ID) bool {
	_, ok := g.slotOf.Get(id)
	return ok
}

// Nodes returns the live transaction ids, sorted.
func (g *Graph) Nodes() []txn.ID {
	out := make([]txn.ID, 0, g.nLive)
	for _, id := range g.ids {
		if id != 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddNode inserts a transaction with its initial w(T0→Ti) weight (the
// declared total demand, due(s0)).
func (g *Graph) AddNode(id txn.ID, w0 float64) error {
	if g.Has(id) {
		return fmt.Errorf("wtpg: node %v already present", id)
	}
	if w0 < 0 {
		return fmt.Errorf("wtpg: negative w0 %g for %v", w0, id)
	}
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = int32(len(g.ids))
		g.ids = append(g.ids, 0)
		g.inc = append(g.inc, 0)
		g.w0 = append(g.w0, 0)
		g.adj = append(g.adj, nil)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	g.ids[s] = id
	g.inc[s]++
	g.w0[s] = w0
	g.slotOf.Put(id, s)
	g.nLive++
	g.muts++
	return nil
}

// W0 returns w(T0→Ti).
func (g *Graph) W0(id txn.ID) float64 {
	s, ok := g.slotOf.Get(id)
	if !ok {
		return 0
	}
	return g.w0[s]
}

// SetW0 overwrites w(T0→Ti), clamped at zero.
func (g *Graph) SetW0(id txn.ID, w float64) {
	s, ok := g.slotOf.Get(id)
	if !ok {
		panic(fmt.Sprintf("wtpg: SetW0 on unknown %v", id))
	}
	g.setW0(s, w)
}

// AddW0 adjusts w(T0→Ti) by delta (the per-object decrement messages use
// delta = -1), clamped at zero. An id not in the graph is ignored.
func (g *Graph) AddW0(id txn.ID, delta float64) {
	if s, ok := g.slotOf.Get(id); ok {
		g.setW0(s, g.w0[s]+delta)
	}
}

func (g *Graph) setW0(s int32, w float64) {
	if w < 0 {
		w = 0
	}
	g.w0[s] = w
	g.muts++
}

// AddConflict inserts the conflicting-edge (a,b) with weights w(a→b)=wab
// and w(b→a)=wba. Both nodes must exist and the pair must be new.
func (g *Graph) AddConflict(a, b txn.ID, wab, wba float64) error {
	if a == b {
		return fmt.Errorf("wtpg: self-conflict on %v", a)
	}
	sa, okA := g.slotOf.Get(a)
	sb, okB := g.slotOf.Get(b)
	if !okA || !okB {
		return fmt.Errorf("wtpg: conflict (%v,%v) with unknown node", a, b)
	}
	k := keyOf(a, b)
	if _, ok := g.pair[k]; ok {
		return fmt.Errorf("wtpg: conflict (%v,%v) already present", a, b)
	}
	if a != k.a { // normalise to (smaller id, larger id)
		sa, sb = sb, sa
		wab, wba = wba, wab
	}
	var idx int32
	if n := len(g.freeEdges); n > 0 {
		idx = g.freeEdges[n-1]
		g.freeEdges = g.freeEdges[:n-1]
	} else {
		idx = int32(len(g.edges))
		g.edges = append(g.edges, edgeRec{})
	}
	g.edges[idx] = edgeRec{
		sa: sa, sb: sb, wab: wab, wba: wba, live: true,
		posA: int32(len(g.adj[sa])), posB: int32(len(g.adj[sb])),
		posOut: -1, posIn: -1,
	}
	g.adj[sa] = append(g.adj[sa], idx)
	g.adj[sb] = append(g.adj[sb], idx)
	g.pair[k] = idx
	g.muts++
	return nil
}

// edgeOut converts a slab record to the public Edge form.
func (g *Graph) edgeOut(e *edgeRec) Edge {
	return Edge{A: g.ids[e.sa], B: g.ids[e.sb], WAB: e.wab, WBA: e.wba, Dir: e.dir}
}

// Edges returns copies of all edges, sorted by endpoint ids.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.pair))
	for _, idx := range g.pair {
		out = append(out, g.edgeOut(&g.edges[idx]))
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
// Resolving an edge again in the same direction is a no-op; resolving it
// in the opposite direction is an error, as is resolving a non-edge.
func (g *Graph) Resolve(from, to txn.ID) error {
	idx, ok := g.pair[keyOf(from, to)]
	if !ok {
		return fmt.Errorf("wtpg: no conflict between %v and %v", from, to)
	}
	e := &g.edges[idx]
	want := AtoB
	if from == g.ids[e.sb] {
		want = BtoA
	}
	switch e.dir {
	case Unresolved:
		e.dir = want
		fs, ts := e.fromSlot(), e.toSlot()
		e.posOut = int32(len(g.out[fs]))
		e.posIn = int32(len(g.in[ts]))
		g.out[fs] = append(g.out[fs], idx)
		g.in[ts] = append(g.in[ts], idx)
		g.muts++
		if g.OnResolve != nil {
			g.OnResolve(g.ids[fs], g.ids[ts])
		}
		return nil
	case want:
		return nil
	default:
		pub := g.edgeOut(e)
		return fmt.Errorf("wtpg: (%v,%v) already resolved %v→%v", pub.A, pub.B, pub.From(), pub.To())
	}
}

// adjDelete swap-removes edge idx from slot s's adjacency list, fixing
// the moved edge's position field.
func (g *Graph) adjDelete(s, idx int32) {
	e := &g.edges[idx]
	pos := e.posA
	if e.sb == s {
		pos = e.posB
	}
	list := g.adj[s]
	last := int32(len(list) - 1)
	moved := list[last]
	list[pos] = moved
	g.adj[s] = list[:last]
	if moved != idx {
		me := &g.edges[moved]
		if me.sa == s {
			me.posA = pos
		} else {
			me.posB = pos
		}
	}
}

// outDelete swap-removes edge idx from out[s]; inDelete likewise.
func (g *Graph) outDelete(s, idx int32) {
	pos := g.edges[idx].posOut
	list := g.out[s]
	last := int32(len(list) - 1)
	moved := list[last]
	list[pos] = moved
	g.out[s] = list[:last]
	if moved != idx {
		g.edges[moved].posOut = pos
	}
}

func (g *Graph) inDelete(s, idx int32) {
	pos := g.edges[idx].posIn
	list := g.in[s]
	last := int32(len(list) - 1)
	moved := list[last]
	list[pos] = moved
	g.in[s] = list[:last]
	if moved != idx {
		g.edges[moved].posIn = pos
	}
}

// Remove deletes a transaction and all its edges (commitment, or abort of
// an admitted transaction). The slot and the edge slab entries return to
// the free lists for reuse.
func (g *Graph) Remove(id txn.ID) {
	s, ok := g.slotOf.Get(id)
	if !ok {
		return
	}
	for _, idx := range g.adj[s] {
		e := &g.edges[idx]
		other := e.sa
		if other == s {
			other = e.sb
		}
		g.adjDelete(other, idx)
		if e.dir != Unresolved {
			if fs := e.fromSlot(); fs == s {
				g.inDelete(e.toSlot(), idx)
			} else {
				g.outDelete(fs, idx)
			}
		}
		delete(g.pair, keyOf(id, g.ids[other]))
		*e = edgeRec{}
		g.freeEdges = append(g.freeEdges, idx)
	}
	g.adj[s] = g.adj[s][:0]
	g.out[s] = g.out[s][:0]
	g.in[s] = g.in[s][:0]
	g.ids[s] = 0
	g.w0[s] = 0
	g.slotOf.Delete(id)
	g.free = append(g.free, s)
	g.nLive--
	g.muts++
}

// Predecessors returns id's direct resolved predecessors — the sources of
// the precedence-edges entering id, sorted by transaction id. It does not
// chase the transitive closure (the paper's before(T)): these are exactly
// the wait-for edges the schedulers resolved against id, which is the set
// a dependency log must record (replay needs only direct edges;
// transitivity is implied). Returns nil when id is not in the graph or
// has no resolved in-edges, and never aliases internal storage.
func (g *Graph) Predecessors(id txn.ID) []txn.ID {
	s, ok := g.slotOf.Get(id)
	if !ok || len(g.in[s]) == 0 {
		return nil
	}
	out := make([]txn.ID, 0, len(g.in[s]))
	for _, idx := range g.in[s] {
		out = append(out, g.ids[g.edges[idx].fromSlot()])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stay names one transaction's stay in the graph: its slot and the slot's
// incarnation, which AddNode advances. A stay ends when its transaction
// leaves (Remove, Splice), and a later transaction in the same slot is a
// different stay.
type Stay struct {
	slot int32
	inc  uint32
}

func (g *Graph) stay(s int32) Stay { return Stay{s, g.inc[s]} }

// Holds reports whether every stay of w still lasts.
func (g *Graph) Holds(w []Stay) bool {
	for _, st := range w {
		if g.inc[st.slot] != st.inc || g.ids[st.slot] == 0 {
			return false
		}
	}
	return true
}

// CycleWitness reports whether resolving from→target for every target
// would close a directed cycle of precedence-edges — the cautious
// schedulers' deadlock prediction test, allocation-free. A target already
// resolved from→target is harmless; one resolved target→from is reported
// as a cycle (the order would contradict itself). Targets need not be
// live transactions. When it reports a cycle it also appends the
// evidence to dst: the stays of from and of a resolved path
// back to it from one of the targets, nearest first (from alone for a
// self-loop, nothing when from is not in the graph). A resolved edge
// leaves the graph only with one of its endpoints, so while the witness
// Holds the path stays, and a request that still names the path's far
// end as a target is refused again. dst comes back unchanged when there
// is no cycle.
//
// An existing resolution between from and a target is read from from's
// side: its resolved predecessors and successors are marked per slot, so
// no pair is looked up, and with no targets nothing is read.
func (g *Graph) CycleWitness(dst []Stay, from txn.ID, targets []txn.ID) ([]Stay, bool) {
	if len(targets) == 0 {
		return dst, false
	}
	sFrom, ok := g.slotOf.Get(from)
	if !ok { // no edges: only a self-loop closes a cycle
		return dst, slices.Contains(targets, from)
	}
	n := len(g.ids)
	g.before.reset(n)
	g.targets.reset(n)
	for _, idx := range g.in[sFrom] {
		g.before.add(g.edges[idx].fromSlot())
	}
	for _, idx := range g.out[sFrom] {
		g.targets.add(g.edges[idx].toSlot())
	}
	// Keep only genuinely new edges on the search stack.
	stack := g.stackBuf[:0]
	for _, to := range targets {
		if to == from { // self-loop
			g.stackBuf = stack[:0]
			return append(dst, g.stay(sFrom)), true
		}
		// A target outside the graph has no out-edges and cannot reach
		// from; one resolved from→target already is harmless.
		sTo, ok := g.slotOf.Get(to)
		if !ok || g.targets.has(sTo) {
			continue
		}
		if g.before.has(sTo) { // to→from already resolved: contradiction
			g.stackBuf = stack[:0]
			return append(dst, g.stay(sFrom), g.stay(sTo)), true
		}
		stack = append(stack, sTo)
	}
	// The resolved precedence-edges alone are acyclic (an invariant every
	// scheduler maintains), so a cycle exists iff some target reaches
	// from via resolved edges (the new edges all share the single source,
	// so they cannot chain into each other except through from itself).
	// This is reach, plus parent: each slot pushed records the marked slot
	// that pushed it, and the targets record -1. A slot's entry is final
	// once it is marked, and from's once it is reached, so parent leads
	// from from back to a target.
	g.visited.reset(n)
	if len(g.parent) < n {
		g.parent = make([]int32, len(g.visited.marks))
	}
	for _, s := range stack {
		g.parent[s] = -1
	}
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == sFrom {
			found = true
			break
		}
		if g.visited.has(u) {
			continue
		}
		g.visited.add(u)
		for _, idx := range g.out[u] {
			e := &g.edges[idx]
			if v := e.sa ^ e.sb ^ u; !g.visited.has(v) { // the endpoint that is not u
				g.parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	g.stackBuf = stack[:0]
	if !found {
		return dst, false
	}
	for s := sFrom; s >= 0; s = g.parent[s] {
		dst = append(dst, g.stay(s))
	}
	return dst, true
}

// reach adds to m every slot reachable from the slots on stack along the
// resolved edges indexed by lists (g.out follows successors, g.in
// predecessors) and reports whether the walk came to stop, where it
// ends. stack is g.stackBuf's storage and goes back to it.
func (g *Graph) reach(m *markset, stack []int32, lists [][]int32, stop int32) bool {
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == stop {
			found = true
			break
		}
		if m.has(u) {
			continue
		}
		m.add(u)
		for _, idx := range lists[u] {
			e := &g.edges[idx]
			if v := e.sa ^ e.sb ^ u; !m.has(v) { // the endpoint that is not u
				stack = append(stack, v)
			}
		}
	}
	g.stackBuf = stack[:0]
	return found
}

// CriticalPath returns the length of the longest path from T0 to Tf using
// only resolved precedence-edges (unresolved conflicting-edges are
// ignored, as in step 3 of the paper's E(q) procedure). Every node Ti has
// the implicit edge T0→Ti of weight w(T0→Ti) and Ti→Tf of weight 0. An
// error is returned if the precedence-edges contain a cycle.
//
// The result is cached against the graph's mutation count: repeated calls
// with no intervening AddNode/AddConflict/Resolve/Remove/SetW0 are O(1)
// and allocation-free; otherwise one slice-based topological pass runs.
func (g *Graph) CriticalPath() (float64, error) {
	if !g.cpValid || g.cpMuts != g.muts {
		g.recomputeCP()
	}
	if !g.cpOK {
		return 0, errCycle
	}
	return g.cpLen, nil
}

// recomputeCP runs one Kahn topological pass with forward longest-path
// relaxation over the live slots, filling topoBuf/distBuf and the cached
// length. Allocation-free once the scratch buffers have grown to the
// graph's high-water mark.
func (g *Graph) recomputeCP() {
	n := len(g.ids)
	if cap(g.indegBuf) < n {
		g.indegBuf = make([]int32, n)
		g.distBuf = make([]float64, n)
	}
	indeg := g.indegBuf[:n]
	dist := g.distBuf[:n]
	topo := g.topoBuf[:0]
	for s := 0; s < n; s++ {
		if g.ids[s] == 0 {
			continue
		}
		indeg[s] = int32(len(g.in[s]))
		dist[s] = g.w0[s]
		if indeg[s] == 0 {
			topo = append(topo, int32(s))
		}
	}
	for i := 0; i < len(topo); i++ {
		u := topo[i]
		du := dist[u]
		for _, idx := range g.out[u] {
			e := &g.edges[idx]
			v := e.toSlot()
			if cand := du + e.weight(); cand > dist[v] {
				dist[v] = cand
			}
			indeg[v]--
			if indeg[v] == 0 {
				topo = append(topo, v)
			}
		}
	}
	g.topoBuf = topo
	g.cpMuts = g.muts
	g.cpValid = true
	if len(topo) != g.nLive {
		g.cpOK = false
		return
	}
	best := 0.0
	for _, s := range topo {
		if dist[s] > best {
			best = dist[s]
		}
	}
	g.cpOK = true
	g.cpLen = best
}

// Clone returns a deep copy of the graph. Used by callers exploring
// hypothetical resolutions destructively; the schedulers' E(q) hot path
// is the allocation-free Estimate instead (path.go).
func (g *Graph) Clone() *Graph {
	c := New()
	for s, id := range g.ids {
		if id == 0 {
			continue
		}
		if err := c.AddNode(id, g.w0[s]); err != nil {
			panic(err) // unreachable: source graph invariants hold
		}
	}
	for k, idx := range g.pair {
		e := &g.edges[idx]
		if err := c.AddConflict(k.a, k.b, e.wab, e.wba); err != nil {
			panic(err)
		}
		switch e.dir {
		case AtoB:
			_ = c.Resolve(k.a, k.b)
		case BtoA:
			_ = c.Resolve(k.b, k.a)
		}
	}
	return c
}

// ConflictWeights computes the conflicting-edge weights between two
// declared transactions per §3.1: for every pair of conflicting declared
// steps (si of a, sj of b), w(b→a) ≥ due(si) and w(a→b) ≥ due(sj); the
// weights are the maxima over all such pairs. ok is false when the
// transactions do not conflict at all.
func ConflictWeights(a, b *txn.T) (wab, wba float64, ok bool) {
	wab, wba = math.Inf(-1), math.Inf(-1)
	for i, sa := range a.Steps {
		for j, sb := range b.Steps {
			if !sa.Conflicts(sb) {
				continue
			}
			ok = true
			if d := b.Due(j); d > wab {
				wab = d
			}
			if d := a.Due(i); d > wba {
				wba = d
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	return wab, wba, true
}

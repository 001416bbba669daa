package wtpg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/txn"
)

// buildRandomGraph decodes a byte string into a WTPG with some resolved
// edges, deterministically.
func buildRandomGraph(data []byte) *Graph {
	g := New()
	n := 2 + int(len(data))%8
	for id := txn.ID(1); id <= txn.ID(n); id++ {
		w0 := float64(id % 7)
		_ = g.AddNode(id, w0)
	}
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b
	}
	for a := txn.ID(1); a <= txn.ID(n); a++ {
		for b := a + 1; b <= txn.ID(n); b++ {
			v := next()
			if v%3 == 0 {
				_ = g.AddConflict(a, b, float64(v%11), float64(v%13))
				if v%2 == 0 {
					from, to := a, b
					if v%4 == 0 {
						from, to = b, a
					}
					if !g.WouldCycleFrom(from, []txn.ID{to}) {
						_ = g.Resolve(from, to)
					}
				}
			}
		}
	}
	return g
}

// Property: WouldCycleFrom is equivalent to the reference engine's
// general WouldCycle with single-source resolutions.
func TestQuickWouldCycleFromEquivalence(t *testing.T) {
	f := func(data []byte, srcRaw uint8, mask uint16) bool {
		g := buildRandomGraph(data)
		nodes := g.Nodes()
		src := nodes[int(srcRaw)%len(nodes)]
		var targets []txn.ID
		var res []Resolution
		for i, id := range nodes {
			if id == src {
				continue
			}
			if mask&(1<<uint(i%16)) != 0 {
				targets = append(targets, id)
				res = append(res, Resolution{From: src, To: id})
			}
		}
		return g.WouldCycleFrom(src, targets) == refOf(g).WouldCycle(res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: CycleWitness answers as WouldCycleFrom, and its witness is the
// evidence: the source's stay, then a resolved path back to it from one
// of the targets. The witness holds until one of its transactions leaves,
// and a new transaction in the freed slot does not revive it.
func TestQuickCycleWitness(t *testing.T) {
	f := func(data []byte, srcRaw uint8, mask uint16) bool {
		g := buildRandomGraph(data)
		nodes := g.Nodes()
		src := nodes[int(srcRaw)%len(nodes)]
		var targets []txn.ID
		for i, id := range nodes {
			if id != src && mask&(1<<uint(i%16)) != 0 {
				targets = append(targets, id)
			}
		}
		w, cycle := g.CycleWitness(nil, src, targets)
		if cycle != g.WouldCycleFrom(src, targets) {
			return false
		}
		if !cycle {
			return w == nil
		}
		ids := make([]txn.ID, len(w))
		for i, st := range w {
			ids[i] = g.ids[st.slot]
		}
		if len(ids) < 2 || ids[0] != src || !slices.Contains(targets, ids[len(ids)-1]) || !g.Holds(w) {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if e, ok := g.EdgeBetween(ids[i], ids[i-1]); !ok || e.Dir == Unresolved || e.From() != ids[i] {
				return false
			}
		}
		gone := ids[len(ids)-1]
		g.Remove(gone)
		if g.Holds(w) {
			return false
		}
		_ = g.AddNode(gone, 1) // back into the slot it left
		return !g.Holds(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConflictWeights is symmetric under argument swap and agrees
// with a naive max-over-conflicting-pairs computation.
func TestQuickConflictWeightsSymmetry(t *testing.T) {
	mkTxn := func(id txn.ID, data []byte) *txn.T {
		n := 1 + len(data)%4
		steps := make([]txn.Step, n)
		for i := range steps {
			b := byte(0)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			steps[i] = txn.Step{
				Mode: txn.Mode(b % 2),
				Part: txn.PartitionID(b % 5),
				Cost: float64(b%9) + 0.5,
			}
		}
		return txn.New(id, steps)
	}
	f := func(da, db []byte) bool {
		a := mkTxn(1, da)
		b := mkTxn(2, db)
		wab, wba, ok := ConflictWeights(a, b)
		wba2, wab2, ok2 := ConflictWeights(b, a)
		if ok != ok2 || (ok && (wab != wab2 || wba != wba2)) {
			return false
		}
		// Naive recomputation.
		nab, nba, nok := -1.0, -1.0, false
		for i, sa := range a.Steps {
			for j, sb := range b.Steps {
				if !sa.Conflicts(sb) {
					continue
				}
				nok = true
				if d := b.Due(j); d > nab {
					nab = d
				}
				if d := a.Due(i); d > nba {
					nba = d
				}
			}
		}
		if nok != ok {
			return false
		}
		return !ok || (nab == wab && nba == wba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the critical path is at least every node's w0 and at least
// every resolved edge's source-w0 + weight.
func TestQuickCriticalPathLowerBounds(t *testing.T) {
	f := func(data []byte) bool {
		g := buildRandomGraph(data)
		cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		for _, id := range g.Nodes() {
			if cp < g.W0(id) {
				return false
			}
		}
		for _, e := range g.Edges() {
			if e.Dir == Unresolved {
				continue
			}
			if cp < g.W0(e.From())+e.Weight() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is observationally identical and independent.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(data []byte) bool {
		g := buildRandomGraph(data)
		c := g.Clone()
		cpG, err1 := g.CriticalPath()
		cpC, err2 := c.CriticalPath()
		if err1 != nil || err2 != nil || cpG != cpC {
			return false
		}
		if len(g.Edges()) != len(c.Edges()) {
			return false
		}
		// Mutating the clone leaves the original untouched.
		nodes := c.Nodes()
		c.SetW0(nodes[0], 1e6)
		cpG2, _ := g.CriticalPath()
		return cpG2 == cpG
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// largeStarGraph models the overloaded-C2PL shape: a few lock holders
// with many pending declarers.
func largeStarGraph(nHolders, nWaiters int) (*Graph, []txn.ID) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	id := txn.ID(1)
	var holders, waiters []txn.ID
	for i := 0; i < nHolders; i++ {
		_ = g.AddNode(id, float64(rng.Intn(10)))
		holders = append(holders, id)
		id++
	}
	for i := 0; i < nWaiters; i++ {
		_ = g.AddNode(id, float64(rng.Intn(10)))
		waiters = append(waiters, id)
		id++
	}
	for _, h := range holders {
		for _, w := range waiters {
			_ = g.AddConflict(h, w, float64(rng.Intn(10)), float64(rng.Intn(10)))
			_ = g.Resolve(h, w)
		}
	}
	return g, waiters
}

func BenchmarkWouldCycleFromStar(b *testing.B) {
	g, waiters := largeStarGraph(16, 500)
	src := waiters[0]
	targets := waiters[1:100]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.WouldCycleFrom(src, targets) {
			b.Fatal("unexpected cycle")
		}
	}
}

func BenchmarkCriticalPathStar(b *testing.B) {
	g, _ := largeStarGraph(16, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.CriticalPath(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloneStar(b *testing.B) {
	g, _ := largeStarGraph(16, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Clone()
	}
}

// ---------------------------------------------------------------------------
// Differential properties: the slot engine (Graph) must agree exactly —
// same values, same errors, same iteration-visible orderings — with the
// map-based reference engine (Ref) under arbitrary mutation sequences.
// ---------------------------------------------------------------------------

// diffPair drives a Graph and a Ref through the identical operation and
// reports whether their observable results matched.
type diffPair struct {
	g    *Graph
	r    *Ref
	live []txn.ID
	next txn.ID
}

func newDiffPair() *diffPair {
	return &diffPair{g: New(), r: NewRef(), next: 1}
}

func (p *diffPair) pick(b byte) txn.ID { return p.live[int(b)%len(p.live)] }

func (p *diffPair) drop(id txn.ID) {
	for i, v := range p.live {
		if v == id {
			p.live = append(p.live[:i], p.live[i+1:]...)
			return
		}
	}
}

func sameErr(a, b error) bool { return (a == nil) == (b == nil) }

func sameIDs(a, b []txn.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgeMap(es []Edge) map[pairKey]Edge {
	m := make(map[pairKey]Edge, len(es))
	for _, e := range es {
		m[keyOf(e.A, e.B)] = e
	}
	return m
}

// sameState compares every observable of the two engines.
func (p *diffPair) sameState(t *testing.T) bool {
	t.Helper()
	if p.g.Len() != p.r.Len() {
		t.Logf("Len: engine=%d ref=%d", p.g.Len(), p.r.Len())
		return false
	}
	if !sameIDs(p.g.Nodes(), p.r.Nodes()) {
		t.Logf("Nodes: engine=%v ref=%v", p.g.Nodes(), p.r.Nodes())
		return false
	}
	for _, id := range p.r.Nodes() {
		if !p.g.Has(id) || p.g.W0(id) != p.r.W0(id) {
			t.Logf("W0(%d): engine=%g ref=%g", id, p.g.W0(id), p.r.W0(id))
			return false
		}
		if p.g.ConflictDegree(id) != p.r.ConflictDegree(id) {
			t.Logf("ConflictDegree(%d): engine=%d ref=%d", id, p.g.ConflictDegree(id), p.r.ConflictDegree(id))
			return false
		}
		if !sameIDs(p.g.Predecessors(id), p.r.Predecessors(id)) {
			t.Logf("Predecessors(%d): engine=%v ref=%v", id, p.g.Predecessors(id), p.r.Predecessors(id))
			return false
		}
	}
	ge, re := edgeMap(p.g.Edges()), edgeMap(p.r.Edges())
	if len(ge) != len(re) {
		t.Logf("Edges: engine=%d ref=%d", len(ge), len(re))
		return false
	}
	for k, e := range ge {
		if re[k] != e {
			t.Logf("Edge %v: engine=%+v ref=%+v", k, e, re[k])
			return false
		}
	}
	cpG, errG := p.g.CriticalPath()
	cpR, errR := p.r.CriticalPath()
	if !sameErr(errG, errR) || (errG == nil && cpG != cpR) {
		t.Logf("CriticalPath: engine=(%g,%v) ref=(%g,%v)", cpG, errG, cpR, errR)
		return false
	}
	pathG, lenG, errG2 := p.g.CriticalPathTrace()
	pathR, lenR, errR2 := p.r.CriticalPathTrace()
	if !sameErr(errG2, errR2) || (errG2 == nil && (lenG != lenR || !sameIDs(pathG, pathR))) {
		t.Logf("CriticalPathTrace: engine=(%v,%g,%v) ref=(%v,%g,%v)", pathG, lenG, errG2, pathR, lenR, errR2)
		return false
	}
	chG, okG := p.g.Chains()
	chR, okR := p.r.Chains()
	if okG != okR || len(chG) != len(chR) {
		t.Logf("Chains: engine=(%v,%v) ref=(%v,%v)", chG, okG, chR, okR)
		return false
	}
	for i := range chG {
		if !sameIDs(chG[i], chR[i]) {
			t.Logf("Chain %d: engine=%v ref=%v", i, chG[i], chR[i])
			return false
		}
	}
	return true
}

// fan resolves up to four edges out of a (into a when in is set), adding
// the conflicts it needs, then removes a middle partner and then the last
// one: the first removal swap-deletes the last edge into the middle's
// place in a's precedence list, and the second must find it there.
func (p *diffPair) fan(t *testing.T, a txn.ID, in bool, w float64) bool {
	var fan []txn.ID
	for _, b := range p.live {
		if b == a || len(fan) == 4 {
			continue
		}
		if _, ok := p.r.EdgeBetween(a, b); !ok {
			if !sameErr(p.g.AddConflict(a, b, w, w+1), p.r.AddConflict(a, b, w, w+1)) {
				return false
			}
		}
		from, to := a, b
		if in {
			from, to = b, a
		}
		if p.r.WouldCycleFrom(from, []txn.ID{to}) {
			continue
		}
		if !sameErr(p.g.Resolve(from, to), p.r.Resolve(from, to)) {
			return false
		}
		fan = append(fan, b)
	}
	if len(fan) < 3 {
		return true
	}
	for _, b := range []txn.ID{fan[1], fan[len(fan)-1]} {
		p.g.Remove(b)
		p.r.Remove(b)
		p.drop(b)
		if !p.sameState(t) {
			t.Logf("after fan(%d, in=%v) removed %d of %v", a, in, b, fan)
			return false
		}
	}
	return true
}

// TestQuickDifferentialEngine feeds identical random mutation sequences
// (AddNode, AddConflict, Resolve, SetW0, AddW0, Remove, Splice, and a fan
// of resolutions out of or into one node whose partners then leave) to
// the slot engine and the reference engine and requires every observable
// — node/edge sets, weights, predecessors, critical path and trace,
// chains, Splice resolutions, cycle tests — to agree exactly after every
// step.
func TestQuickDifferentialEngine(t *testing.T) {
	f := func(data []byte) bool {
		p := newDiffPair()
		k := 0
		nb := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[k%len(data)]
			k++
			return b + byte(k) // decorrelate repeats of short inputs
		}
		steps := 6 + len(data)%48
		for i := 0; i < steps; i++ {
			op := nb() % 14
			switch {
			case op < 3 || len(p.live) == 0:
				w0 := float64(nb() % 9)
				if !sameErr(p.g.AddNode(p.next, w0), p.r.AddNode(p.next, w0)) {
					return false
				}
				p.live = append(p.live, p.next)
				p.next++
			case op < 6:
				a, b := p.pick(nb()), p.pick(nb())
				wab, wba := float64(nb()%7), float64(nb()%7)
				if !sameErr(p.g.AddConflict(a, b, wab, wba), p.r.AddConflict(a, b, wab, wba)) {
					return false
				}
			case op < 8:
				a, b := p.pick(nb()), p.pick(nb())
				if !sameErr(p.g.Resolve(a, b), p.r.Resolve(a, b)) {
					return false
				}
			case op == 8:
				a, w := p.pick(nb()), float64(nb()%11)
				p.g.SetW0(a, w)
				p.r.SetW0(a, w)
			case op == 9:
				a, d := p.pick(nb()), float64(nb()%5)-2
				p.g.AddW0(a, d)
				p.r.AddW0(a, d)
			case op == 10:
				a := p.pick(nb())
				p.g.Remove(a)
				p.r.Remove(a)
				p.drop(a)
			case op >= 12:
				if !p.fan(t, p.pick(nb()), op == 13, float64(nb()%7)) {
					return false
				}
			default:
				a := p.pick(nb())
				rsG, rsR := p.g.Splice(a, nil), p.r.Splice(a)
				if len(rsG) != len(rsR) {
					t.Logf("Splice(%d): engine=%v ref=%v", a, rsG, rsR)
					return false
				}
				for j := range rsG {
					if rsG[j] != rsR[j] {
						t.Logf("Splice(%d): engine=%v ref=%v", a, rsG, rsR)
						return false
					}
				}
				p.drop(a)
			}
			if !p.sameState(t) {
				return false
			}
			// Cycle probes against the live state: every node to one
			// target, and one node to two.
			if len(p.live) >= 2 {
				dst := p.pick(nb())
				for _, src := range p.live {
					if src != dst && p.g.WouldCycleFrom(src, []txn.ID{dst}) != p.r.WouldCycleFrom(src, []txn.ID{dst}) {
						t.Logf("WouldCycleFrom(%d,[%d]) diverged", src, dst)
						return false
					}
				}
				src, more := p.pick(nb()), p.pick(nb())
				if src != dst && src != more {
					targets := []txn.ID{dst, more}
					if p.g.WouldCycleFrom(src, targets) != p.r.WouldCycleFrom(src, targets) {
						t.Logf("WouldCycleFrom(%d,%v) diverged", src, targets)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCriticalPath measures the uncached recomputation: each
// iteration bumps a node weight (invalidating the critical-path cache) and
// re-reads the critical path. The cached re-read case is
// BenchmarkCriticalPathStar above.
func BenchmarkCriticalPath(b *testing.B) {
	g, waiters := largeStarGraph(16, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SetW0(waiters[0], float64(i%17))
		if _, err := g.CriticalPath(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphChurn measures the simulator's steady-state graph
// lifecycle: admit a transaction, declare conflicts against live
// holders, resolve them, read the critical path, then commit (Remove)
// the oldest — exercising slot and edge-slab reuse.
func BenchmarkGraphChurn(b *testing.B) {
	g := New()
	const window = 64
	var live []txn.ID
	next := txn.ID(1)
	for len(live) < window {
		_ = g.AddNode(next, float64(next%13))
		live = append(live, next)
		next++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AddNode(next, float64(next%13))
		for j := 1; j <= 4; j++ {
			h := live[(i*5+j*11)%len(live)]
			_ = g.AddConflict(h, next, float64(j), float64(j+1))
			_ = g.Resolve(h, next)
		}
		if _, err := g.CriticalPath(); err != nil {
			b.Fatal(err)
		}
		g.Remove(live[0])
		live = append(live[1:], next)
		next++
	}
}

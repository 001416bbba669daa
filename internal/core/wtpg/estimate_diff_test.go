package wtpg

import (
	"math"
	"testing"
	"testing/quick"

	"batsched/internal/txn"
)

// refE is the original clone-based E(q) (§3.3), run against the map-based
// reference engine: grant q on a copy, orient the straddling edges, take
// the copy's critical path. Graph.Estimate, which writes no edge and
// re-relaxes only after(t), must agree with it exactly, including every
// ∞ case.
func refE(g *Ref, t txn.ID, targets []txn.ID) float64 {
	if g.WouldCycleFrom(t, targets) {
		return math.Inf(1)
	}
	h := g.Clone()
	for _, to := range targets {
		if _, ok := h.EdgeBetween(t, to); !ok {
			if err := h.AddConflict(t, to, 0, 0); err != nil {
				return math.Inf(1)
			}
		}
		if err := h.Resolve(t, to); err != nil {
			return math.Inf(1)
		}
	}
	before := h.Before(t)
	after := h.After(t)
	for _, e := range h.Edges() {
		if e.Dir != Unresolved {
			continue
		}
		switch {
		case before[e.A] && after[e.B]:
			if err := h.Resolve(e.A, e.B); err != nil {
				return math.Inf(1)
			}
		case before[e.B] && after[e.A]:
			if err := h.Resolve(e.B, e.A); err != nil {
				return math.Inf(1)
			}
		}
	}
	cp, err := h.CriticalPath()
	if err != nil {
		return math.Inf(1)
	}
	return cp
}

// sameE compares an engine E with the reference's, ∞ included.
func sameE(t *testing.T, g *Graph, r *Ref, src txn.ID, targets []txn.ID) bool {
	t.Helper()
	got, want := g.Estimate(src, targets), refE(r, src, targets)
	if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
		t.Logf("E(%d,%v): engine=%g ref=%g", src, targets, got, want)
		return false
	}
	return true
}

// buildPairGraphs decodes a byte string into the same WTPG twice: once in
// the slot engine and once in the reference engine.
func buildPairGraphs(data []byte) (*Graph, *Ref) {
	g := New()
	r := NewRef()
	n := 2 + len(data)%9
	for id := txn.ID(1); id <= txn.ID(n); id++ {
		w0 := float64(id % 7)
		_ = g.AddNode(id, w0)
		_ = r.AddNode(id, w0)
	}
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b + byte(k)
	}
	for a := txn.ID(1); a <= txn.ID(n); a++ {
		for b := a + 1; b <= txn.ID(n); b++ {
			v := next()
			if v%3 != 0 {
				continue
			}
			_ = g.AddConflict(a, b, float64(v%11), float64(v%13))
			_ = r.AddConflict(a, b, float64(v%11), float64(v%13))
			if v%2 == 0 {
				from, to := a, b
				if v%4 == 0 {
					from, to = b, a
				}
				if !r.WouldCycle([]Resolution{{From: from, To: to}}) {
					_ = g.Resolve(from, to)
					_ = r.Resolve(from, to)
				}
			}
		}
	}
	return g, r
}

// Property: Estimate equals the clone-based reference E(q) on the same
// graph and leaves the graph untouched.
func TestQuickEDifferential(t *testing.T) {
	f := func(data []byte, srcRaw uint8, mask uint16) bool {
		g, r := buildPairGraphs(data)
		nodes := r.Nodes()
		src := nodes[int(srcRaw)%len(nodes)]
		var targets []txn.ID
		for i, id := range nodes {
			if id != src && mask&(1<<uint(i%16)) != 0 {
				targets = append(targets, id)
			}
		}
		cpBefore, errBefore := g.CriticalPath()
		if !sameE(t, g, r, src, targets) {
			return false
		}
		cpAfter, errAfter := g.CriticalPath()
		if (errBefore == nil) != (errAfter == nil) || (errBefore == nil && cpBefore != cpAfter) {
			t.Logf("E mutated the graph: cp %g -> %g", cpBefore, cpAfter)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEDifferentialMutating drives a Graph/Ref pair through random
// AddNode (into freed slots once anything has left), AddConflict,
// acyclic Resolve, Remove, AddW0, SetW0 and Splice, and after every step
// compares E on the mutated graph — with no CriticalPath read in between,
// so a stale cached pass shows — for one transaction against its
// unresolved neighbours, a random live subset (edge-less targets, resolved
// ones in either direction), its resolved successor and predecessor, a
// duplicated target, itself, no target, a departed target, and a departed
// transaction with and without targets.
func TestQuickEDifferentialMutating(t *testing.T) {
	f := func(data []byte) bool {
		p := newDiffPair()
		k := 0
		nb := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[k%len(data)]
			k++
			return b + byte(k)
		}
		var gone []txn.ID // ids that have left the graph
		steps := 8 + len(data)%56
		for i := 0; i < steps; i++ {
			switch op := nb() % 12; {
			case op < 3 || len(p.live) < 2:
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
				if !p.r.WouldCycleFrom(a, []txn.ID{b}) {
					if !sameErr(p.g.Resolve(a, b), p.r.Resolve(a, b)) {
						return false
					}
				}
			case op == 8:
				a, d := p.pick(nb()), float64(nb()%5)-2
				p.g.AddW0(a, d)
				p.r.AddW0(a, d)
			case op == 9:
				a, w := p.pick(nb()), float64(nb()%11)
				p.g.SetW0(a, w)
				p.r.SetW0(a, w)
			case op == 10:
				a := p.pick(nb())
				p.g.Remove(a)
				p.r.Remove(a)
				p.drop(a)
				gone = append(gone, a)
			default:
				a := p.pick(nb())
				p.g.Splice(a, nil)
				p.r.Splice(a)
				p.drop(a)
				gone = append(gone, a)
			}
			if len(p.live) == 0 {
				continue
			}
			src := p.pick(nb())
			var nbrs, subset, succ, pred []txn.ID
			for _, v := range p.live {
				if e, ok := p.r.EdgeBetween(src, v); ok && e.Dir == Unresolved {
					nbrs = append(nbrs, v)
				}
				if nb()%2 == 0 {
					subset = append(subset, v)
				}
				if from, _, ok := p.r.Resolved(src, v); ok {
					if from == src {
						succ = append(succ, v)
					} else {
						pred = append(pred, v)
					}
				}
			}
			other := p.pick(nb())
			probes := [][]txn.ID{nbrs, subset, succ, pred, {other, other}, {src}, nil}
			if len(succ) > 0 && len(nbrs) > 0 {
				probes = append(probes, []txn.ID{succ[0], nbrs[0]})
			}
			departed := p.next // never added
			if len(gone) > 0 {
				departed = gone[int(nb())%len(gone)]
			}
			probes = append(probes, []txn.ID{other, departed})
			for _, targets := range probes {
				if !sameE(t, p.g, p.r, src, targets) {
					t.Logf("after step %d", i)
					return false
				}
			}
			if !sameE(t, p.g, p.r, departed, nil) || !sameE(t, p.g, p.r, departed, []txn.ID{other}) {
				return false
			}
			if !p.sameState(t) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package wtpg_test

import (
	"math"
	"testing"
	"testing/quick"

	"batsched/internal/core/estimate"
	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
)

// refE is the original clone-based E(q) (§3.3), run against the map-based
// reference engine. The overlay-based production E must agree with it
// exactly, including every ∞ case. The differential is an external test
// of package wtpg because Ref is wtpg test code, which only the package's
// own test binary compiles.
func refE(g *wtpg.Ref, t txn.ID, targets []txn.ID) float64 {
	if g.WouldCycleFrom(t, targets) {
		return estimate.Infinite()
	}
	h := g.Clone()
	for _, to := range targets {
		if _, ok := h.EdgeBetween(t, to); !ok {
			if err := h.AddConflict(t, to, 0, 0); err != nil {
				return estimate.Infinite()
			}
		}
		if err := h.Resolve(t, to); err != nil {
			return estimate.Infinite()
		}
	}
	before := h.Before(t)
	after := h.After(t)
	for _, e := range h.Edges() {
		if e.Dir != wtpg.Unresolved {
			continue
		}
		switch {
		case before[e.A] && after[e.B]:
			if err := h.Resolve(e.A, e.B); err != nil {
				return estimate.Infinite()
			}
		case before[e.B] && after[e.A]:
			if err := h.Resolve(e.B, e.A); err != nil {
				return estimate.Infinite()
			}
		}
	}
	cp, err := h.CriticalPath()
	if err != nil {
		return estimate.Infinite()
	}
	return cp
}

// buildPairGraphs decodes a byte string into the same WTPG twice: once in
// the slot engine and once in the reference engine.
func buildPairGraphs(data []byte) (*wtpg.Graph, *wtpg.Ref) {
	g := wtpg.New()
	r := wtpg.NewRef()
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
				if !r.WouldCycle([]wtpg.Resolution{{From: from, To: to}}) {
					_ = g.Resolve(from, to)
					_ = r.Resolve(from, to)
				}
			}
		}
	}
	return g, r
}

// Property: the overlay E(q) equals the clone-based reference E(q) on the
// same graph and leaves the live graph untouched.
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
		got := estimate.E(g, src, targets)
		want := refE(r, src, targets)
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Logf("E(%d,%v): engine=%g ref=%g", src, targets, got, want)
			return false
		}
		// The overlay must roll back: the live graph is unchanged.
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

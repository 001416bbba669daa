package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// eagerTwin is the reference a C2PL-family scheduler that builds an edge
// only when it resolves it is held to: the same family built eager, so
// its WTPG holds every conflicting-edge from admission on and its splice
// finds every unresolved pair in the graph.
func eagerTwin(s Scheduler) Scheduler {
	c := s.(*c2pl)
	return newC2PL(c.costs, c.name, true, c.preAdmit)
}

// resolvedEdges is g's precedence-edges, its unresolved conflicting-edges
// left out, sorted by endpoints.
func resolvedEdges(g *wtpg.Graph) []wtpg.Edge {
	return slices.DeleteFunc(g.Edges(), func(e wtpg.Edge) bool { return e.Dir == wtpg.Unresolved })
}

// TestQuickLazyEdgesMatchEager feeds one random sequence of admissions of
// random declared transactions, in-order requests, weight messages,
// commits and injected aborts to C2PL and K2-C2PL and to their eager
// twins. Every Outcome must be equal, every resolution — a grant's, an
// admission's against a holder, a splice's past an aborted transaction —
// must be reported in the same order with the same endpoints, and after
// every operation both graphs must hold the same precedence-edges,
// weights included, and the same critical path.
func TestQuickLazyEdgesMatchEager(t *testing.T) {
	type resolution struct{ from, to txn.ID }
	for _, newLazy := range []func() Scheduler{
		func() Scheduler { return NewC2PL(testCosts) },
		func() Scheduler { return NewKC2PL(testCosts, 2) },
	} {
		name := newLazy().Name()
		spliced := 0
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			lazy := newLazy()
			eager := eagerTwin(lazy)
			gl, ge := lazy.(GraphHolder).Graph(), eager.(GraphHolder).Graph()
			var logL, logE []resolution
			gl.OnResolve = func(from, to txn.ID) { logL = append(logL, resolution{from, to}) }
			ge.OnResolve = func(from, to txn.ID) { logE = append(logE, resolution{from, to}) }
			next := txn.ID(1)
			type live struct {
				t    *txn.T
				step int // the next step to request
			}
			var txns []*live
			for op := range 200 {
				now := event.Time(op)
				var got, want Outcome
				switch k := rng.Intn(10); {
				case k < 3 || len(txns) == 0:
					tx := randomTxn(next, rng)
					next++
					got, want = lazy.Admit(tx, now), eager.Admit(tx, now)
					if got.Decision == Granted {
						txns = append(txns, &live{t: tx})
					}
				case k < 7:
					l := txns[rng.Intn(len(txns))]
					if l.step == len(l.t.Steps) {
						lazy.Commit(l.t, now)
						eager.Commit(l.t, now)
						txns = slices.DeleteFunc(txns, func(x *live) bool { return x == l })
						break
					}
					got, want = lazy.Request(l.t, l.step, now), eager.Request(l.t, l.step, now)
					if got.Decision == Granted {
						l.step++
					}
				case k < 8:
					l := txns[rng.Intn(len(txns))]
					lazy.ObjectDone(l.t, 1, now)
					eager.ObjectDone(l.t, 1, now)
				default:
					i := rng.Intn(len(txns))
					before := len(logE)
					lazy.Abort(txns[i].t, now)
					eager.Abort(txns[i].t, now)
					spliced += len(logE) - before
					txns = slices.Delete(txns, i, i+1)
				}
				if got != want {
					t.Logf("%s seed %d op %d: lazy %+v, eager %+v", name, seed, op, got, want)
					return false
				}
				if !slices.Equal(logL, logE) {
					t.Logf("%s seed %d op %d: lazy resolved %v, eager %v", name, seed, op, logL, logE)
					return false
				}
				if a, b := resolvedEdges(gl), resolvedEdges(ge); !slices.Equal(a, b) {
					t.Logf("%s seed %d op %d: lazy edges %v, eager %v", name, seed, op, a, b)
					return false
				}
				cl, errL := gl.CriticalPath()
				ce, errE := ge.CriticalPath()
				if cl != ce || (errL == nil) != (errE == nil) {
					t.Logf("%s seed %d op %d: critical path %g %v, eager %g %v", name, seed, op, cl, errL, ce, errE)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spliced == 0 {
			t.Fatalf("%s: no abort spliced a precedence past its transaction", name)
		}
	}
}

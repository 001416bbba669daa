package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// registerFirstChain is CHAIN with the admission it used to have: register
// the arrival, run the whole-graph chain decomposition, roll back on a
// violation. It is the reference the pre-registration test is compared to.
type registerFirstChain struct{ chain }

func (c *registerFirstChain) Admit(t *txn.T, now event.Time) Outcome {
	if err := c.register(t); err != nil {
		return Outcome{Decision: Delayed, CPU: c.costs.DDTime}
	}
	if _, ok := c.graph.Chains(); !ok {
		c.unregister(t)
		return Outcome{Decision: Aborted, CPU: c.costs.DDTime}
	}
	c.planDirty = true
	return Outcome{Decision: Granted, CPU: c.costs.DDTime}
}

// TestChainAdmitMatchesRegisterFirst drives random interleavings of admit
// (re-admissions of live transactions included) / request / commit / abort
// over the fuzzer's pool through CHAIN and through the register-first
// reference: every outcome — decision and CPU — must be the same, so
// deciding chain form before registering changed no schedule. After every
// operation CHAIN's WTPG is chain-form: the invariant that lets CHAIN run
// in one mode (docs/ROBUSTNESS.md §3).
func TestChainAdmitMatchesRegisterFirst(t *testing.T) {
	costs := Costs{DDTime: 1, ChainTime: 2, KeepTime: 50}
	f := func(ops []byte) bool {
		got := NewChain(costs).(*chain)
		want := &registerFirstChain{chain{wtpgBase: newWTPGBase(costs)}}
		pool := fuzzTxnPool()
		states := make([]fuzzState, len(pool))
		now := event.Time(0)
		for i, b := range ops {
			now++
			idx := int(b) % len(pool)
			tx, st := pool[idx], &states[idx]
			var g, w Outcome
			switch op := (int(b) / len(pool)) % 4; {
			case op == 0:
				g, w = got.Admit(tx, now), want.Admit(tx, now)
				if g.Decision == Granted {
					*st = fuzzState{admitted: true}
				}
			case !st.admitted:
				continue
			case op == 1 && st.step < len(tx.Steps):
				g, w = got.Request(tx, st.step, now), want.Request(tx, st.step, now)
				if g.Decision == Granted {
					st.step++
				}
			case op == 2 && st.step == len(tx.Steps):
				got.Commit(tx, now)
				want.Commit(tx, now)
				*st = fuzzState{}
			case op == 3:
				got.Abort(tx, now)
				want.Abort(tx, now)
				*st = fuzzState{}
			}
			if g != w {
				t.Errorf("op %d (%d on %v): %+v, register-first %+v", i, (int(b)/len(pool))%4, tx.ID, g, w)
				return false
			}
			if _, ok := got.graph.Chains(); !ok {
				t.Errorf("op %d (%d on %v): the WTPG is not chain-form", i, (int(b)/len(pool))%4, tx.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestChainRefusedAdmitTouchesNothing: each way an arrival can break chain
// form — a third neighbour, a neighbour inside its chain, a closed cycle —
// is refused with the lock table and the WTPG exactly as they were: the
// arrival unknown to both, no declaration, no node, and no phantom resolve
// event against the holder it would have queued behind.
func TestChainRefusedAdmitTouchesNothing(t *testing.T) {
	ring := obs.NewRing(64)
	s := Observed(NewChain(testCosts), ring)
	c := s.(*observed).inner.(*chain)
	// The chain T1 - T2 - T3 over partitions 0..3, and T4 alone on 5 and 6.
	t1 := txn.New(1, []txn.Step{w(0, 1), w(1, 1)})
	t2 := txn.New(2, []txn.Step{w(1, 1), w(2, 1)})
	t3 := txn.New(3, []txn.Step{w(2, 1), w(3, 1)})
	t4 := txn.New(4, []txn.Step{w(5, 1), w(6, 1)})
	admitAll(t, s, t1, t2, t3, t4)
	if out := s.Request(t1, 0, 0); out.Decision != Granted {
		t.Fatalf("T1 step 0: %v", out.Decision)
	}
	nodes, edges, events := c.graph.Len(), len(c.graph.Edges()), len(ring.Events())
	for name, tx := range map[string]*txn.T{
		"three neighbours":   txn.New(10, []txn.Step{w(0, 1), w(3, 1), w(5, 1)}),
		"interior neighbour": txn.New(11, []txn.Step{w(1, 1)}),
		"closes a cycle":     txn.New(12, []txn.Step{w(0, 1), w(3, 1)}),
	} {
		if out := s.Admit(tx, 1); out.Decision != Aborted || out.CPU != testCosts.DDTime {
			t.Errorf("%s: %+v, want aborted at one DDTime", name, out)
		}
		if _, live := c.live.Get(tx.ID); live || c.locks.Known(tx.ID) || c.graph.Has(tx.ID) {
			t.Errorf("%s: the refused arrival is registered somewhere", name)
		}
		if c.graph.Len() != nodes || len(c.graph.Edges()) != edges {
			t.Errorf("%s: the graph changed", name)
		}
		if d := c.locks.ConflictingDecls(nil, 0, 0, txn.Write); len(d) != 0 {
			t.Errorf("%s: declarations left on P0: %v", name, d)
		}
	}
	for _, e := range ring.Events()[events:] {
		if e.Kind != obs.KindDecision {
			t.Errorf("a refused admission emitted %v", e)
		}
	}
	// Bridging two chains end to end keeps chain form.
	if out := s.Admit(txn.New(13, []txn.Step{w(3, 1), w(5, 1)}), 2); out.Decision != Granted {
		t.Errorf("bridging arrival: %v, want granted", out.Decision)
	}
}

// BenchmarkChainAdmitRefused is the refusal hot-set CHAIN pays most often:
// a chain-form WTPG of live Pattern2 transactions and one more arrival
// that violates chain form.
func BenchmarkChainAdmitRefused(b *testing.B) {
	s := NewChain(testCosts)
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
	rng := rand.New(rand.NewSource(1))
	var refused *txn.T
	for id := txn.ID(1); id <= 64; id++ {
		if tx := gen.Next(id, rng); s.Admit(tx, 0).Decision != Granted {
			refused = tx
		}
	}
	if refused == nil {
		b.Fatal("64 hot-set arrivals and none violated chain form")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Admit(refused, 1).Decision != Aborted {
			b.Fatal("the violating arrival was admitted")
		}
	}
}

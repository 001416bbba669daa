package sched

import (
	"math/rand"
	"runtime"
	"testing"

	"batsched/internal/event"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// hotSetCycle returns one arrival's whole life on the paper's Pattern2 hot
// set — admit, request each step until one is refused, commit — against a
// background of live transactions that declared and hold nothing, so the
// requests reach the scheduler's decision (C(q), E(q), W) rather than a
// held lock. grants counts the requests granted.
func hotSetCycle(s Scheduler, grants *int) func() {
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
	rng := rand.New(rand.NewSource(1))
	for id := txn.ID(1); id <= 8; id++ {
		s.Admit(gen.Next(id, rng), 0)
	}
	pool := make([]*txn.T, 64)
	for i := range pool {
		pool[i] = gen.Next(txn.ID(101+i), rng)
	}
	n := 0
	now := event.Time(0)
	return func() {
		tx := pool[n%len(pool)]
		n++
		now++
		if s.Admit(tx, now).Decision != Granted {
			return
		}
		for step := range tx.Steps {
			if s.Request(tx, step, now).Decision != Granted {
				break
			}
			*grants++
		}
		s.Commit(tx, now)
	}
}

// TestDecisionSteadyStateAllocs pins the control node's decision path:
// once warm, admitting, deciding and committing a hot-set transaction
// allocates nothing under C2PL and K2 (lock table, C(q), the K-admission
// test, E(q)) and under CHAIN, whose recomputes of W solve real chains
// (W on the records, Graph.ChainInput's input, the chain decomposition
// and the chainopt.Solver's DP reuse their buffers). A warmed C2PL request refused again while its
// cycle witness holds is answered from the refusal memo, also at 0.
func TestDecisionSteadyStateAllocs(t *testing.T) {
	for _, f := range []Factory{C2PLFactory(), KWTPGFactory(2)} {
		grants := 0
		cycle := hotSetCycle(f.New(testCosts), &grants)
		for range 256 {
			cycle()
		}
		if got := testing.AllocsPerRun(1000, cycle); got != 0 {
			t.Errorf("%s: %.0f allocations per warmed admit/request/commit cycle, want 0", f.Label, got)
		}
		if grants == 0 {
			t.Errorf("%s: no request was granted; the cycle does not reach a decision", f.Label)
		}
	}

	// The memo's witness is doubled: it holds as well as the one the cycle
	// test wrote, but a re-decision would write that one back.
	s, tx, step := refusedRequest(t)
	r, _ := s.(*c2pl).live.Get(tx.ID)
	r.witness = append(r.witness, r.witness...)
	planted := len(r.witness)
	repeat := func() {
		if s.Request(tx, step, 1).Decision != Delayed {
			t.Fatal("C2PL: the refused request was not refused again")
		}
	}
	if got := testing.AllocsPerRun(1000, repeat); got != 0 {
		t.Errorf("C2PL: %.0f allocations per memoised refusal, want 0", got)
	}
	if len(r.witness) != planted {
		t.Error("C2PL: the repeats re-decided instead of answering from the memo")
	}

	c := NewChain(testCosts).(*chain)
	grants := 0
	cycle := hotSetCycle(c, &grants)
	for range 256 {
		cycle()
	}
	// Count the chains each recompute of W solves: the decomposition is
	// allocation-free, so reading it here costs the measurement nothing.
	solves := 0
	measured := func() {
		before := c.recomputes
		cycle()
		if c.recomputes > before {
			chains, _ := c.graph.Chains()
			for _, ch := range chains {
				if len(ch) > 1 {
					solves += c.recomputes - before
				}
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 1000 {
		measured()
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("CHAIN: %d allocations, %d chain solves, %d grants over 1000 cycles", allocs, solves, grants)
	if allocs != 0 {
		t.Errorf("CHAIN: %d allocations over 1000 cycles (%d chain solves), want 0", allocs, solves)
	}
	if grants == 0 || solves == 0 {
		t.Errorf("CHAIN: %d grants, %d chain solves; the cycle does not reach W", grants, solves)
	}
}

func benchmarkSchedCycle(b *testing.B, s Scheduler) {
	grants := 0
	cycle := hotSetCycle(s, &grants)
	for range 256 {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkSchedCycleK2 and BenchmarkSchedCycleChain time one hot-set
// transaction's decisions, admission to commit (see hotSetCycle).
func BenchmarkSchedCycleK2(b *testing.B)    { benchmarkSchedCycle(b, NewKWTPG(testCosts, 2)) }
func BenchmarkSchedCycleChain(b *testing.B) { benchmarkSchedCycle(b, NewChain(testCosts)) }

// BenchmarkC2PLArrivalHot is one C2PL arrival in Figure 8's overloaded
// shape: about 1,000 live Pattern2 transactions on 4 hot partitions, each
// having read its read-only partition, and a holder of each hot partition
// that ordered itself before the waiters declaring it. The arrival is
// admitted — resolved after the holders it conflicts with — and committed
// before it requests anything, so every iteration meets the same graph.
func BenchmarkC2PLArrivalHot(b *testing.B) {
	s := NewC2PL(testCosts)
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 4})
	rng := rand.New(rand.NewSource(1))
	var live []*txn.T
	for id := txn.ID(1); id <= 1000; id++ {
		tx := gen.Next(id, rng)
		if s.Admit(tx, 0).Decision != Granted || s.Request(tx, 0, 0).Decision != Granted {
			b.Fatalf("%v refused on an empty hot set", tx.ID)
		}
		live = append(live, tx)
	}
	for _, tx := range live {
		s.Request(tx, 1, 0) // the first writer of each hot partition holds it
	}
	pool := make([]*txn.T, 64)
	for i := range pool {
		pool[i] = gen.Next(txn.ID(2001+i), rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := pool[i%len(pool)]
		if s.Admit(tx, 1).Decision != Granted {
			b.Fatal("C2PL refused an admission")
		}
		s.Commit(tx, 1)
	}
}

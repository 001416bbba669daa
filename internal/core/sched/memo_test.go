package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// checkWitnesses checks the contract the refusal memo stands on: for
// every live transaction whose memo's witness still holds and whose
// refused step is not blocked, a fresh cycle test over the step's implied
// targets refuses it again. (A blocked step is answered Blocked before
// the memo is read.)
func checkWitnesses(b *wtpgBase) error {
	for _, id := range b.graph.Nodes() {
		r, ok := b.live.Get(id)
		if !ok || len(r.witness) == 0 || !b.graph.Holds(r.witness) || b.blocked(r.t, r.refused) {
			continue
		}
		if targets := b.impliedTargets(r.t, r.refused); !wouldCycle(b.graph, id, targets) {
			return fmt.Errorf("%v's memo for step %d holds, but nothing closes a cycle to %v", id, r.refused, targets)
		}
	}
	return nil
}

// wouldCycle is the cautious cycle test without its witness.
func wouldCycle(g *wtpg.Graph, from txn.ID, targets []txn.ID) bool {
	_, cycle := g.CycleWitness(nil, from, targets)
	return cycle
}

// TestQuickC2PLRefusalMemo feeds one random sequence of Admit, Request,
// ObjectDone, Commit and Abort over twelve transactions — from the
// Pattern2 hot set and from Experiment1(16) — to two C2PL schedulers, one
// of which forgets its refusals before every Request: every Outcome,
// decision and CPU, must be equal. Requests name the next ungranted step
// or, one in three, any ungranted one, so a memo that ignored the step
// would answer for the wrong one; one in eight names a granted step, which
// the lock table refuses at grant, after the cycle test passed. Committed
// and aborted transactions are admitted again under their ids, mostly
// into the slots they left. After every operation the witnesses' contract
// is checked on the memoising scheduler (checkWitnesses).
func TestQuickC2PLRefusalMemo(t *testing.T) {
	for _, gen := range []workload.Generator{
		workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8}),
		workload.Experiment1(16),
	} {
		// run plays seed's sequence and reports whether the two schedulers
		// agreed throughout, and how many requests met a memo that held.
		run := func(seed int64) (ok bool, hits int) {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]*txn.T, 12)
			for i := range pool {
				pool[i] = gen.Next(txn.ID(i+1), rng)
			}
			memo, fresh := NewC2PL(testCosts), NewC2PL(testCosts)
			admitted := make([]bool, len(pool))
			granted := make([][]bool, len(pool))
			for op := range 300 {
				now := event.Time(op)
				i := rng.Intn(len(pool))
				tx := pool[i]
				var got, want Outcome
				switch k := rng.Intn(10); {
				case !admitted[i]:
					got, want = memo.Admit(tx, now), fresh.Admit(tx, now)
					if got.Decision == Granted {
						admitted[i], granted[i] = true, make([]bool, len(tx.Steps))
					}
				case k < 7:
					var open []int
					for s, g := range granted[i] {
						if !g {
							open = append(open, s)
						}
					}
					if len(open) == 0 {
						memo.Commit(tx, now)
						fresh.Commit(tx, now)
						admitted[i] = false
						break
					}
					step := open[0]
					if rng.Intn(3) == 0 {
						step = open[rng.Intn(len(open))]
					}
					if done := len(tx.Steps) - len(open); done > 0 && rng.Intn(8) == 0 {
						step = slices.Index(granted[i], true)
					}
					b := &memo.(*c2pl).wtpgBase
					memoStep, w := refusalOf(memo, tx.ID)
					if memoStep == step && w != nil && b.graph.Holds(w) && !b.blocked(tx, step) {
						hits++
					}
					got = memo.Request(tx, step, now)
					forgetRefusals(fresh)
					want = fresh.Request(tx, step, now)
					if got.Decision == Granted {
						granted[i][step] = true
					}
				case k < 8:
					memo.ObjectDone(tx, 1, now)
					fresh.ObjectDone(tx, 1, now)
				default:
					memo.Abort(tx, now)
					fresh.Abort(tx, now)
					admitted[i] = false
				}
				if got != want {
					t.Logf("%s seed %d op %d on %v: memo %+v, fresh %+v", gen.Name(), seed, op, tx.ID, got, want)
					return false, hits
				}
				if err := checkWitnesses(&memo.(*c2pl).wtpgBase); err != nil {
					t.Logf("%s seed %d op %d on %v: %v", gen.Name(), seed, op, tx.ID, err)
					return false, hits
				}
			}
			return true, hits
		}
		// The differential property draws fresh seeds; a failure logs its
		// seed above.
		if err := quick.Check(func(seed int64) bool { ok, _ := run(seed); return ok }, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
		// Coverage is judged on fixed seeds, so it cannot flake: the memo
		// must answer some repeat refusal.
		const coverageSeeds = 20
		hits := 0
		for seed := int64(1); seed <= coverageSeeds; seed++ {
			ok, n := run(seed)
			if !ok {
				t.Fatalf("%s: seed %d failed the differential", gen.Name(), seed)
			}
			hits += n
		}
		t.Logf("%s: %d memoised refusals answered on seeds 1–%d", gen.Name(), hits, coverageSeeds)
		if hits == 0 {
			t.Errorf("%s: no repeat refusal met a holding witness; the memo was never exercised", gen.Name())
		}
	}
}

// scanRegister is register as it was before the lock table named the
// candidates: a conflict test against every live transaction. It is the
// reference TestRegisterCandidatesMatchScan holds register to.
func (b *wtpgBase) scanRegister(t *txn.T) error {
	if err := b.locks.Declare(t); err != nil {
		return err
	}
	if err := b.graph.AddNode(t.ID, t.DeclaredTotal()); err != nil {
		b.locks.Release(t.ID)
		return err
	}
	var peers []*txn.T
	for _, id := range b.graph.Nodes() {
		if u, ok := b.live.Get(id); ok {
			peers = append(peers, u.t)
		}
	}
	for _, u := range peers {
		wtu, wut, ok := wtpg.ConflictWeights(t, u)
		if !ok {
			continue
		}
		if err := b.graph.AddConflict(t.ID, u.ID, wtu, wut); err != nil {
			b.unregister(t)
			return err
		}
	}
	for _, s := range t.Steps {
		for _, h := range b.locks.Blocked(t.ID, s.Part, s.Mode) {
			if !b.graph.Has(h) {
				continue
			}
			if err := b.graph.Resolve(h, t.ID); err != nil {
				b.unregister(t)
				return err
			}
		}
	}
	b.enter(t)
	return nil
}

// scanStaysChainForm is staysChainForm over a scan of the live
// transactions, stopping at the third neighbour.
func (b *wtpgBase) scanStaysChainForm(t *txn.T) bool {
	if b.locks.Known(t.ID) {
		return true
	}
	var neighbours []txn.ID
	for _, id := range b.graph.Nodes() {
		if u, ok := b.live.Get(id); ok {
			if _, _, ok := wtpg.ConflictWeights(t, u.t); ok {
				neighbours = append(neighbours, id)
			}
		}
		if len(neighbours) == 3 {
			break
		}
	}
	return b.graph.StaysChainForm(neighbours)
}

// TestRegisterCandidatesMatchScan drives random admissions (zero-step
// transactions and S→X upgrades included), cautious grants, commits and
// aborts through two bases, one registering through the lock table's
// candidates and one through the scan of all live transactions. Before
// every admission into a chain-form graph staysChainForm must answer as
// the scan does; after every admission,
// every pair of live transactions must have the edge ConflictWeights
// gives — presence and both weights — and both graphs the same edges,
// orientations included.
func TestRegisterCandidatesMatchScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		got, ref := newWTPGBase(testCosts), newWTPGBase(testCosts)
		next := txn.ID(1)
		var live []*txn.T
		steps := map[txn.ID]int{}
		for op := range 120 {
			switch k := rng.Intn(8); {
			case k < 3 || len(live) == 0:
				tx := randomTxn(next, rng)
				next++
				// Only a chain-form graph gives staysChainForm an answer
				// independent of its neighbours' order.
				_, chainForm := got.graph.Chains()
				if a, b := got.staysChainForm(tx), ref.scanStaysChainForm(tx); chainForm && a != b {
					t.Logf("seed %d op %d: staysChainForm(%v) = %v, scan %v", seed, op, tx, a, b)
					return false
				}
				if a, b := got.register(tx), ref.scanRegister(tx); (a == nil) != (b == nil) {
					t.Logf("seed %d op %d: register(%v) = %v, scan %v", seed, op, tx, a, b)
					return false
				}
				live = append(live, tx)
				edges := got.graph.Edges()
				for _, u := range live {
					for _, v := range live {
						if u.ID >= v.ID {
							continue
						}
						wuv, wvu, ok := wtpg.ConflictWeights(u, v)
						e, has := edgeBetween(edges, u.ID, v.ID)
						if has != ok || ok && (e.WAB != wuv || e.WBA != wvu) {
							t.Logf("seed %d op %d: edge (%v,%v) = %+v %v, ConflictWeights %g %g %v", seed, op, u.ID, v.ID, e, has, wuv, wvu, ok)
							return false
						}
					}
				}
				if a, b := edges, ref.graph.Edges(); !slices.Equal(a, b) {
					t.Logf("seed %d op %d: edges %v, scan %v", seed, op, a, b)
					return false
				}
			case k < 6:
				tx := live[rng.Intn(len(live))]
				s := steps[tx.ID]
				if s == len(tx.Steps) {
					continue
				}
				blocked := got.blocked(tx, s)
				if blocked != ref.blocked(tx, s) {
					t.Logf("seed %d op %d: blocked(%v, %d) differs", seed, op, tx.ID, s)
					return false
				}
				if blocked || wouldCycle(got.graph, tx.ID, got.impliedTargets(tx, s)) {
					continue
				}
				if err := got.grant(tx, s, got.impliedTargets(tx, s)); err != nil {
					t.Fatal(err)
				}
				if err := ref.grant(tx, s, ref.impliedTargets(tx, s)); err != nil {
					t.Fatal(err)
				}
				steps[tx.ID]++
			default:
				i := rng.Intn(len(live))
				tx := live[i]
				if k == 6 {
					got.commit(tx)
					ref.commit(tx)
				} else {
					got.abort(tx)
					ref.abort(tx)
				}
				live = slices.Delete(live, i, i+1)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomTxn draws up to four steps over eight partitions; one in four is
// r(A) → w(A), the S→X upgrade, and one in five of the rest has no steps.
func randomTxn(id txn.ID, rng *rand.Rand) *txn.T {
	if rng.Intn(4) == 0 {
		p := txn.PartitionID(rng.Intn(8))
		return txn.New(id, []txn.Step{r(p, float64(rng.Intn(4))+0.5), w(p, float64(rng.Intn(3)))})
	}
	steps := make([]txn.Step, rng.Intn(5))
	for i := range steps {
		steps[i] = txn.Step{Mode: txn.Mode(rng.Intn(2)), Part: txn.PartitionID(rng.Intn(8)), Cost: float64(rng.Intn(7)) / 2}
	}
	return txn.New(id, steps)
}

// refusedRequest builds a C2PL scheduler over the Pattern2 hot set with a
// request it refuses Delayed, already refused once so the memo holds it.
func refusedRequest(tb testing.TB) (Scheduler, *txn.T, int) {
	s := NewC2PL(testCosts)
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
	rng := rand.New(rand.NewSource(1))
	var pool []*txn.T
	for id := txn.ID(1); id <= 16; id++ {
		if tx := gen.Next(id, rng); s.Admit(tx, 0).Decision == Granted {
			pool = append(pool, tx)
		}
	}
	next := make([]int, len(pool))
	for range 8 {
		for i, tx := range pool {
			if next[i] == len(tx.Steps) {
				continue
			}
			switch s.Request(tx, next[i], 0).Decision {
			case Granted:
				next[i]++
			case Delayed:
				return s, tx, next[i]
			}
		}
	}
	tb.Fatal("no hot-set request was refused Delayed")
	return nil, nil, 0
}

// BenchmarkC2PLRefusalRepeat times a warmed repeat refusal on the hot
// set: the request C2PL refuses again while nothing it reads has changed.
func BenchmarkC2PLRefusalRepeat(b *testing.B) {
	s, tx, step := refusedRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Request(tx, step, 1)
	}
}

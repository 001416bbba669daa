package modelcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

// ledger builds a History from grants written "w1:7" — mode,
// transaction, partition — in grant order, with the listed transactions
// pre-committed.
func ledger(grants string, committed ...txn.ID) *History {
	h := NewHistory()
	for _, g := range strings.Fields(grants) {
		var mode rune
		var id txn.ID
		var part txn.PartitionID
		if _, err := fmt.Sscanf(g, "%c%d:%d", &mode, &id, &part); err != nil {
			panic(err)
		}
		h.Grant(id, part, map[rune]txn.Mode{'r': txn.Read, 'w': txn.Write}[mode])
	}
	for _, id := range committed {
		h.Commit(id)
	}
	return h
}

func set(ids ...txn.ID) map[txn.ID]bool {
	m := map[txn.ID]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// TestVerifyCommitPrefix pins the conflict-order closure rule on one
// partition history: w1 r2 r3 w4 r5.
func TestVerifyCommitPrefix(t *testing.T) {
	h := ledger("w1:7 r2:7 r3:7 w4:7 r5:7", 1, 2, 3, 4, 5)
	for _, ok := range []map[txn.ID]bool{
		set(), set(1), set(1, 2), set(1, 3), // concurrent readers: either may be lost alone
		set(1, 2, 3, 4), set(1, 2, 3, 4, 5),
		set(1, 2, 3, 4, 5, 99), // 99 never released a lock: constrains nothing
	} {
		if err := h.VerifyCommitPrefix(ok); err != nil {
			t.Errorf("recovered %v rejected: %v", ok, err)
		}
	}
	for _, bad := range []struct {
		rec  map[txn.ID]bool
		want string
	}{
		{set(2), "lost writer"},          // read from the lost w1
		{set(4), "lost writer"},          // overwrote the lost w1
		{set(1, 2, 4), "lost reader"},    // w4 overwrote what the lost r3 read
		{set(1, 2, 3, 5), "lost writer"}, // r5 read from the lost w4
	} {
		err := h.VerifyCommitPrefix(bad.rec)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("recovered %v: got %v, want a %q violation", bad.rec, err, bad.want)
		}
	}
}

// TestCertify: the certificate rejects what it must, clause by clause,
// and accepts the two histories a cruder ledger would reject.
func TestCertify(t *testing.T) {
	recovered := func(ids ...txn.ID) *wal.Recovery { return &wal.Recovery{Committed: ids} }
	// One store for the contents cases: P0 holds the effect of T9 step 0.
	st, err := storage.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Insert(0, storage.EncodeEffect(9, 0, 0, 64)); err != nil {
		t.Fatal(err)
	}
	wrote := func(id txn.ID) *History { // id wrote P0 in its step 0, and committed
		h := NewHistory()
		h.Observe(obs.Event{Kind: obs.KindRequest, Txn: id, Part: 0, Write: true})
		h.Observe(obs.Event{Kind: obs.KindDecision, Op: "request", Decision: "granted", Txn: id, Part: 0, Write: true})
		h.Observe(obs.Event{Kind: obs.KindCommit, Txn: id})
		return h
	}
	for _, tc := range []struct {
		name string
		h    *History
		ev   Evidence
		want string // "" = must pass
	}{
		{"write-write cycle across two partitions",
			ledger("w1:0 w2:0 w2:1 w1:1", 1, 2), Evidence{}, "not conflict serializable"},
		{"read upgrade around a committed reader",
			ledger("r1:0 r2:0 w1:0", 1, 2), Evidence{}, ""},
		{"grant, abort, grant again", func() *History {
			// T1's spanning admission got P0, was refused P1 and rolled
			// back; T2 then took both; T1 came again after it.
			h := ledger("w1:0")
			h.Observe(obs.Event{Kind: obs.KindAbort, Txn: 1})
			for _, g := range []struct {
				id   txn.ID
				part txn.PartitionID
			}{{2, 0}, {2, 1}, {1, 0}, {1, 1}} {
				h.Grant(g.id, g.part, txn.Write)
			}
			h.Commit(1)
			h.Commit(2)
			return h
		}(), Evidence{}, ""},
		{"logged predecessor against the grant order",
			ledger("w1:0 w2:0", 1, 2),
			Evidence{Scans: []wal.NodeScan{{Records: []wal.Record{{Kind: wal.Commit, Txn: 1, Preds: []txn.ID{2}}}}}},
			"logged predecessors contradict"},
		{"recovered without a lost writer's successor rule",
			ledger("w1:7 r2:7", 1, 2),
			Evidence{Recovery: recovered(2), Acked: set(), Killed: true}, "lost writer"},
		{"acknowledged commit missing after a clean stop",
			ledger("w1:0 w2:1", 1, 2),
			Evidence{Recovery: recovered(1), Acked: set(1, 2)}, "acknowledged T2 lost"},
		{"unacknowledged commit durable after a clean stop",
			ledger("w1:0 w2:1", 1, 2),
			Evidence{Recovery: recovered(1, 2), Acked: set(1)}, "never acknowledged"},
		{"recovered but never pre-committed",
			ledger("w1:0", 1),
			Evidence{Recovery: recovered(1, 3), Killed: true}, "resurrected"},
		{"one effect missing, one extra", wrote(1), Evidence{Store: st}, "P0 misses the effect of T1 step 0"},
		{"one effect extra", NewHistory(), Evidence{Store: st}, "P0 holds an effect of T9 step 0"},
		{"contents match", wrote(9), Evidence{Store: st}, ""},
		{"contents match the preload", NewHistory(),
			Evidence{Store: st, Preload: map[txn.PartitionID][]storage.EffectKey{0: {{Txn: 9}}}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.h.Certify(tc.ev)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// allPairs is the conflict order Certify drew before the reduction, kept
// verbatim as the reference: on every partition, each pre-committed grant
// linked to every later grant it conflicts with.
func allPairs(h *History) func(edge func(a, b txn.ID)) {
	return func(edge func(a, b txn.ID)) {
		for _, gs := range h.byPart {
			for i, a := range gs {
				if !h.committed[a.id] {
					continue
				}
				for _, b := range gs[i+1:] {
					if a.mode.Conflicts(b.mode) {
						edge(a.id, b.id)
					}
				}
			}
		}
	}
}

// randomLedger draws a history over at most 6 partitions and 12
// transactions, with logged predecessor scans as its evidence. Each
// partition's accesses follow one random serial order of the transactions
// except, one partition in three, for a swapped adjacent pair, so both
// verdicts occur; one access in four is an S→X upgrade (a read then a
// write of the same partition), one event in ten aborts a transaction
// (erasing its grants so far, later ones stand), and one transaction in
// four never pre-commits.
func randomLedger(rng *rand.Rand) (*History, Evidence) {
	type access struct {
		id   txn.ID
		mode txn.Mode
	}
	n, parts := 2+rng.Intn(11), 1+rng.Intn(6)
	rank := rng.Perm(n + 1)
	queues := make([][]access, parts)
	for p := range queues {
		ids := make([]txn.ID, rng.Intn(2*n))
		for i := range ids {
			ids[i] = txn.ID(1 + rng.Intn(n))
		}
		sort.Slice(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
		for _, id := range ids {
			switch rng.Intn(4) {
			case 0:
				queues[p] = append(queues[p], access{id, txn.Read}, access{id, txn.Write})
			case 1:
				queues[p] = append(queues[p], access{id, txn.Write})
			default:
				queues[p] = append(queues[p], access{id, txn.Read})
			}
		}
		if q := queues[p]; len(q) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(q) - 1)
			q[i], q[i+1] = q[i+1], q[i]
		}
	}
	h := NewHistory()
	for {
		var open []int
		for p, q := range queues {
			if len(q) > 0 {
				open = append(open, p)
			}
		}
		if len(open) == 0 {
			break
		}
		if rng.Intn(10) == 0 {
			h.Abort(txn.ID(1 + rng.Intn(n)))
			continue
		}
		p := open[rng.Intn(len(open))]
		a := queues[p][0]
		queues[p] = queues[p][1:]
		h.Grant(a.id, txn.PartitionID(p), a.mode)
	}
	for id := 1; id <= n; id++ {
		if rng.Intn(4) != 0 {
			h.Commit(txn.ID(id))
		}
	}
	var ev Evidence
	if rng.Intn(2) == 0 {
		var recs []wal.Record
		for range rng.Intn(4) {
			a, b := txn.ID(1+rng.Intn(n)), txn.ID(1+rng.Intn(n))
			if rank[a] > rank[b] && rng.Intn(3) != 0 {
				a, b = b, a // mostly consistent with the serial order
			}
			recs = append(recs, wal.Record{Kind: wal.Commit, Txn: b, Preds: []txn.ID{a}})
		}
		ev.Scans = []wal.NodeScan{{Records: recs}}
	}
	return h, ev
}

// verdict is an error's message up to the transaction it names on a
// cycle, which two correct edge orders may choose differently.
func verdict(err error) string {
	if err == nil {
		return "accepted"
	}
	msg, _, _ := strings.Cut(err.Error(), " (cycle through")
	return msg
}

// TestQuickCertifyReduced holds the certificate's reduced conflict order
// to the all-pairs order it replaced: on random ledgers — S→X upgrades,
// erased grants of aborted transactions, uncommitted grants among
// committed ones, logged predecessor scans — both accept, or both reject
// with the same message up to the transaction named on the cycle.
func TestQuickCertifyReduced(t *testing.T) {
	verdicts := map[string]int{}
	f := func(seed int64) bool {
		h, ev := randomLedger(rand.New(rand.NewSource(seed)))
		got, want := verdict(h.Certify(ev)), verdict(h.certify(ev, allPairs(h)))
		verdicts[want]++
		if got != want {
			t.Logf("seed %d: reduced order %q, all pairs %q", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("verdicts: %v", verdicts)
	if len(verdicts) < 3 {
		t.Errorf("the ledgers reached only %v; want acceptances and both kinds of cycle", verdicts)
	}
}

// BenchmarkCertifyHotSet certifies a committed serial ledger of Pattern2
// hot-set transactions, a few thousand grants over 16 partitions — the
// end-of-run certificate's conflict order and cycle search.
func BenchmarkCertifyHotSet(b *testing.B) {
	gen := workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
	rng := rand.New(rand.NewSource(1))
	h := NewHistory()
	grants := 0
	for id := txn.ID(1); grants < 4000; id++ {
		tx := gen.Next(id, rng)
		for _, s := range tx.Steps {
			h.Grant(id, s.Part, s.Mode)
			grants++
		}
		h.Commit(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Certify(Evidence{}); err != nil {
			b.Fatal(err)
		}
	}
}

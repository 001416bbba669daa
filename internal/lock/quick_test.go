package lock

import (
	"slices"
	"testing"
	"testing/quick"

	"batsched/internal/txn"
)

// tablePair drives the slot engine (Table) and the map-based reference
// (refTable) through identical operations.
type tablePair struct {
	tb   *Table
	ref  *refTable
	live []*txn.T
	next txn.ID
	buf  []Decl
}

const (
	diffParts = 8  // partitions 0..7
	diffLive  = 12 // live transactions at most
)

// diffTxn decodes up to four steps over diffParts partitions. One shape
// in four is r(A) → w(A), the S→X upgrade, and an empty byte string
// yields a zero-step transaction.
func diffTxn(id txn.ID, nb func() byte) *txn.T {
	b := nb()
	n := int(b % 5)
	if b%4 == 3 {
		p := txn.PartitionID(nb() % diffParts)
		return txn.New(id, []txn.Step{r(p, float64(nb()%4)+0.5), w(p, float64(nb()%3))})
	}
	steps := make([]txn.Step, n)
	for i := range steps {
		c := nb()
		steps[i] = txn.Step{Mode: txn.Mode(c % 2), Part: txn.PartitionID(c / 2 % diffParts), Cost: float64(c%7) / 2}
	}
	return txn.New(id, steps)
}

func (p *tablePair) drop(id txn.ID) {
	p.live = slices.DeleteFunc(p.live, func(t *txn.T) bool { return t.ID == id })
}

// conflictScan is what ConflictingTxns must find for x: the live
// transactions other than x with a declared step conflicting with one of
// x's, ascending.
func (p *tablePair) conflictScan(x *txn.T) []txn.ID {
	var out []txn.ID
	for _, u := range p.live {
		if u.ID != x.ID && slices.ContainsFunc(u.Steps, func(su txn.Step) bool {
			return slices.ContainsFunc(x.Steps, su.Conflicts)
		}) {
			out = append(out, u.ID)
		}
	}
	slices.Sort(out)
	return out
}

// adjacent reports whether each transaction's declarations in ds are next
// to each other, as sched's C(q) dedupe assumes.
func adjacent(ds []Decl) bool {
	for i := 1; i < len(ds); i++ {
		id := ds[i].Txn
		if id != ds[i-1].Txn && slices.ContainsFunc(ds[:i-1], func(d Decl) bool { return d.Txn == id }) {
			return false
		}
	}
	return true
}

// same compares every query of the two tables, with probe as the fresh
// transaction for the K-admission test.
func (p *tablePair) same(t *testing.T, probe *txn.T) bool {
	t.Helper()
	ids := []txn.ID{0, p.next} // never declared, and not yet declared
	for _, l := range p.live {
		ids = append(ids, l.ID)
	}
	for _, id := range ids {
		if p.tb.Known(id) != p.ref.Known(id) {
			t.Logf("Known(%v): table=%v ref=%v", id, p.tb.Known(id), p.ref.Known(id))
			return false
		}
	}
	for part := txn.PartitionID(0); part < diffParts+1; part++ {
		if got, want := p.tb.Holders(part), p.ref.Holders(part); !slices.Equal(got, want) {
			t.Logf("Holders(%v): table=%v ref=%v", part, got, want)
			return false
		}
		for _, id := range ids {
			for _, m := range []txn.Mode{txn.Read, txn.Write} {
				if got, want := p.tb.IsBlocked(id, part, m), p.ref.IsBlocked(id, part, m); got != want {
					t.Logf("IsBlocked(%v,%v,%v): table=%v ref=%v", id, part, m, got, want)
					return false
				}
				if got, want := p.tb.Blocked(id, part, m), p.ref.Blocked(id, part, m); !slices.Equal(got, want) {
					t.Logf("Blocked(%v,%v,%v): table=%v ref=%v", id, part, m, got, want)
					return false
				}
				p.buf = p.tb.ConflictingDecls(p.buf[:0], id, part, m)
				if want := p.ref.ConflictingDecls(id, part, m); !slices.Equal(p.buf, want) {
					t.Logf("ConflictingDecls(%v,%v,%v): table=%v ref=%v", id, part, m, p.buf, want)
					return false
				}
				if !adjacent(p.buf) {
					t.Logf("ConflictingDecls(%v,%v,%v) = %v: a transaction's declarations are not adjacent", id, part, m, p.buf)
					return false
				}
			}
		}
	}
	for _, x := range append([]*txn.T{probe}, p.live...) {
		if got, want := p.tb.ConflictingTxns(nil, x), p.conflictScan(x); !slices.Equal(got, want) {
			t.Logf("ConflictingTxns(%v): table=%v scan=%v", x, got, want)
			return false
		}
	}
	for k := 0; k <= 3; k++ {
		if got, want := p.tb.WouldExceedK(probe, k), p.ref.WouldExceedK(probe, k); got != want {
			t.Logf("WouldExceedK(%v, %d): table=%v ref=%v", probe, k, got, want)
			return false
		}
	}
	if errT, errR := p.tb.CheckInvariants(), p.ref.CheckInvariants(); (errT == nil) != (errR == nil) {
		t.Logf("CheckInvariants: table=%v ref=%v", errT, errR)
		return false
	}
	return true
}

// TestQuickDifferentialTable feeds identical random Declare / Grant /
// Release sequences over diffParts partitions and at most diffLive live
// transactions — S→X upgrades and zero-step transactions included — to
// the slot engine and the map-based reference it replaced, and requires
// every query to agree after every operation: Known, Holders, IsBlocked,
// Blocked, ConflictingDecls in order (each transaction's declarations
// adjacent), ConflictingTxns for the probe and
// every live transaction (against a scan of their declared steps),
// WouldExceedK for K = 0..3 with a
// fresh probe transaction, Release's sorted result, CheckInvariants, and
// whether each Declare and Grant fails.
func TestQuickDifferentialTable(t *testing.T) {
	f := func(data []byte) bool {
		p := &tablePair{tb: NewTable(), ref: newRefTable(), next: 1}
		k := 0
		nb := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[k%len(data)]
			k++
			return b + byte(k) // decorrelate repeats of short inputs
		}
		steps := 8 + len(data)%56
		for i := 0; i < steps; i++ {
			op := nb() % 8
			switch {
			case op < 2 && len(p.live) < diffLive || len(p.live) == 0:
				tx := diffTxn(p.next, nb)
				p.next++
				if errT, errR := p.tb.Declare(tx), p.ref.Declare(tx); (errT == nil) != (errR == nil) {
					t.Logf("Declare(%v): table=%v ref=%v", tx, errT, errR)
					return false
				}
				p.live = append(p.live, tx)
			case op < 6:
				tx := p.live[int(nb())%len(p.live)]
				part, step := txn.PartitionID(nb()%diffParts), int(nb()%4)
				if len(tx.Steps) > 0 && op < 5 {
					step %= len(tx.Steps)
					part = tx.Steps[step].Part
				}
				if errT, errR := p.tb.Grant(tx.ID, part, step), p.ref.Grant(tx.ID, part, step); (errT == nil) != (errR == nil) {
					t.Logf("Grant(%v,%v,%d): table=%v ref=%v", tx.ID, part, step, errT, errR)
					return false
				}
			case op == 6:
				tx := p.live[int(nb())%len(p.live)]
				if errT, errR := p.tb.Declare(tx), p.ref.Declare(tx); errT == nil || errR == nil {
					t.Logf("re-Declare(%v): table=%v ref=%v", tx.ID, errT, errR)
					return false
				}
			default:
				id := p.next // unknown, one time in eight
				if b := nb(); b%8 != 0 {
					id = p.live[int(b)%len(p.live)].ID
				}
				if got, want := p.tb.Release(id), p.ref.Release(id); !slices.Equal(got, want) {
					t.Logf("Release(%v): table=%v ref=%v", id, got, want)
					return false
				}
				p.drop(id)
			}
			if !p.same(t, diffTxn(p.next, nb)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTableSteadyStateAllocs pins the slot engine's point: once warm, a
// Declare → Grant → ConflictingDecls → WouldExceedK → Release cycle over
// a populated table allocates nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	tb := benchTable(64)
	probe := txn.New(1<<20, []txn.Step{r(3, 1), w(11, 1)})
	pool := make([]*txn.T, 256)
	for i := range pool {
		pool[i] = txn.New(txn.ID(1000+i), []txn.Step{r(5, 5), w(9, 1), w(5, 1)})
	}
	var buf []Decl
	n := 0
	cycle := func() {
		tx := pool[n%len(pool)]
		n++
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
		for i, s := range tx.Steps {
			buf = tb.ConflictingDecls(buf[:0], tx.ID, s.Part, s.Mode)
			if err := tb.Grant(tx.ID, s.Part, i); err != nil {
				t.Fatal(err)
			}
		}
		tb.WouldExceedK(probe, 2)
		tb.Release(tx.ID)
	}
	for range len(pool) {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("%.0f allocations per warmed lock-table cycle, want 0", got)
	}
}

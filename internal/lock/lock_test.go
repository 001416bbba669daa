package lock

import (
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

func mk(id txn.ID, ss ...txn.Step) *txn.T { return txn.New(id, ss) }

func r(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Read, Part: p, Cost: c} }
func w(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Write, Part: p, Cost: c} }

func TestDeclareAndDueAttachment(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, r(0, 1), r(1, 3), w(0, 1)) // Figure 1's T1
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	decls := tb.PendingDecls(1)
	if len(decls) != 3 {
		t.Fatalf("got %d decls, want 3", len(decls))
	}
	wantDue := []float64{5, 4, 1}
	for i, d := range decls {
		if d.Step != i || d.Due != wantDue[i] {
			t.Errorf("decl %d = %+v, want step %d due %g", i, d, i, wantDue[i])
		}
	}
	if err := tb.Declare(t1); err == nil {
		t.Fatal("double Declare succeeded")
	}
}

// TestDeclareRejectsNegativePartition: partitions index the table's slot
// slice, so a negative one is refused before anything is recorded, and a
// partition far past the rest grows the slice to reach it.
func TestDeclareRejectsNegativePartition(t *testing.T) {
	tb := NewTable()
	if err := tb.Declare(mk(1, r(0, 1), w(-3, 1))); err == nil {
		t.Fatal("Declare accepted partition -3")
	}
	if tb.Known(1) || tb.IsBlocked(2, 0, txn.Write) || len(tb.ConflictingDecls(nil, 2, 0, txn.Write)) != 0 {
		t.Error("a refused Declare left state behind")
	}
	if err := tb.Declare(mk(1, w(0, 1), w(1000, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if got := tb.Holders(1000); len(got) != 1 || got[0] != 1 {
		t.Errorf("Holders(P1000) = %v, want [T1]", got)
	}
	if tb.Holders(999) != nil || tb.Holders(5000) != nil || tb.Holders(-1) != nil {
		t.Error("an unlocked partition has holders")
	}
}

func TestBlockedAndGrant(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, w(0, 1))
	t2 := mk(2, r(0, 1))
	t3 := mk(3, r(0, 1))
	for _, tx := range []*txn.T{t1, t2, t3} {
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.Blocked(2, 0, txn.Read); len(got) != 0 {
		t.Fatalf("read blocked with no holders: %v", got)
	}
	if err := tb.Grant(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Second reader is compatible.
	if got := tb.Blocked(3, 0, txn.Read); len(got) != 0 {
		t.Fatalf("read blocked by S holder: %v", got)
	}
	if err := tb.Grant(3, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Writer is blocked by both readers.
	if got := tb.Blocked(1, 0, txn.Write); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Blocked = %v, want [2 3]", got)
	}
	if err := tb.Grant(1, 0, 0); err == nil {
		t.Fatal("Grant of conflicting write succeeded")
	}
	tb.Release(2)
	tb.Release(3)
	if got := tb.Blocked(1, 0, txn.Write); len(got) != 0 {
		t.Fatalf("still blocked after release: %v", got)
	}
	if err := tb.Grant(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m, ok := tb.HeldMode(1, 0); !ok || m != txn.Write {
		t.Errorf("HeldMode = %v,%v want Write,true", m, ok)
	}
}

func TestUpgrade(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, r(0, 1), w(0, 1))
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := tb.HeldMode(1, 0); m != txn.Read {
		t.Fatalf("held %v after S grant", m)
	}
	// Own S hold does not block own X request.
	if got := tb.Blocked(1, 0, txn.Write); len(got) != 0 {
		t.Fatalf("self-blocked: %v", got)
	}
	if err := tb.Grant(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if m, _ := tb.HeldMode(1, 0); m != txn.Write {
		t.Fatalf("held %v after upgrade, want Write", m)
	}
	if len(tb.PendingDecls(1)) != 0 {
		t.Errorf("pending decls remain: %v", tb.PendingDecls(1))
	}
}

func TestConflictingDecls(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, r(0, 2), w(0, 1)) // dues 3,1
	t2 := mk(2, w(0, 4))          // due 4
	t3 := mk(3, r(0, 1))          // due 1
	for _, tx := range []*txn.T{t1, t2, t3} {
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
	}
	// C(q) for T3's read on partition 0: conflicts with T1's write decl and
	// T2's write decl, not with T1's read decl.
	c := tb.ConflictingDecls(nil, 3, 0, txn.Read)
	if len(c) != 2 {
		t.Fatalf("C(q) = %v, want 2 decls", c)
	}
	for _, d := range c {
		if d.Mode != txn.Write {
			t.Errorf("read-read counted as conflict: %v", d)
		}
	}
	// C(q) for T2's write: conflicts with everything of T1 and T3 (3 decls).
	if c := tb.ConflictingDecls(nil, 2, 0, txn.Write); len(c) != 3 {
		t.Fatalf("C(q) for write = %v, want 3 decls", c)
	}
	// Granting T3's read removes its declaration from others' C(q).
	if err := tb.Grant(3, 0, 0); err != nil {
		t.Fatal(err)
	}
	if c := tb.ConflictingDecls(nil, 2, 0, txn.Write); len(c) != 2 {
		t.Fatalf("C(q) after grant = %v, want 2 decls", c)
	}
}

func TestReleaseReturnsFreedPartitions(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, r(2, 1), w(5, 1), r(7, 1))
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 5, 1); err != nil {
		t.Fatal(err)
	}
	freed := tb.Release(1)
	if len(freed) != 2 || freed[0] != 2 || freed[1] != 5 {
		t.Fatalf("freed = %v, want [2 5]", freed)
	}
	if tb.Known(1) {
		t.Error("transaction still known after Release")
	}
	if len(tb.PendingDecls(1)) != 0 {
		t.Error("declarations survive Release")
	}
}

// The K-admission test used to be built from per-declaration conflict
// degrees; the reference table keeps that formulation.
func TestDeclConflictDegree(t *testing.T) {
	tb := newRefTable()
	// T1 writes A; T2 reads A and writes A; T3 reads A.
	t1 := mk(1, w(0, 1))
	t2 := mk(2, r(0, 1), w(0, 1))
	t3 := mk(3, r(0, 1))
	for _, tx := range []*txn.T{t1, t2, t3} {
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
	}
	// T1's w(A) conflicts with T2's r, T2's w, T3's r => 3.
	if d := tb.DeclConflictDegree(1); d[0] != 3 {
		t.Errorf("T1 degree = %v, want step0:3", d)
	}
	// T2's r(A) conflicts with T1's w => 1; T2's w(A) with T1's w and T3's r => 2.
	if d := tb.DeclConflictDegree(2); d[0] != 1 || d[1] != 2 {
		t.Errorf("T2 degrees = %v, want {0:1 1:2}", d)
	}
	// T3's r(A) conflicts with T1's w and T2's w => 2.
	if d := tb.DeclConflictDegree(3); d[0] != 2 {
		t.Errorf("T3 degree = %v, want step0:2", d)
	}
}

func TestWouldExceedK(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, w(0, 1))
	if tb.WouldExceedK(t1, 0) {
		t.Error("first transaction exceeds K=0 on empty table")
	}
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	t2 := mk(2, r(0, 1))
	if tb.WouldExceedK(t2, 1) {
		t.Error("one conflict exceeds K=1")
	}
	if !tb.WouldExceedK(t2, 0) {
		t.Error("one conflict does not exceed K=0")
	}
	if err := tb.Declare(t2); err != nil {
		t.Fatal(err)
	}
	// T3 reads A: its own decl conflicts only with T1's w (1), but T1's w
	// would then conflict with 2 declarations.
	t3 := mk(3, r(0, 1))
	if tb.WouldExceedK(t3, 1) == false {
		t.Error("existing declaration pushed past K=1 not detected")
	}
	if tb.WouldExceedK(t3, 2) {
		t.Error("K=2 should admit T3")
	}
}

func TestWouldExceedKCountsPerDeclaration(t *testing.T) {
	tb := NewTable()
	// Hub with three separate partitions: each declaration has degree 1
	// even though the hub conflicts with three transactions (the paper:
	// "Even K-WTPG of K=1 accepts a WTPG which is not a chain-form").
	hub := mk(1, w(0, 1), w(1, 1), w(2, 1))
	if err := tb.Declare(hub); err != nil {
		t.Fatal(err)
	}
	for i, p := range []txn.PartitionID{0, 1, 2} {
		leaf := mk(txn.ID(10+i), r(p, 1))
		if tb.WouldExceedK(leaf, 1) {
			t.Fatalf("leaf %d rejected at K=1", i)
		}
		if err := tb.Declare(leaf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckInvariants(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, r(0, 1))
	t2 := mk(2, r(0, 1))
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Declare(t2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Errorf("two readers flagged: %v", err)
	}
}

// Randomized workload: declarations, legal grants, releases — the table
// must never hold conflicting locks and Grant must refuse illegal grants.
func TestRandomizedNoConflictingHolders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tb := NewTable()
		type pending struct {
			id   txn.ID
			step int
			part txn.PartitionID
			mode txn.Mode
		}
		var reqs []pending
		live := map[txn.ID]bool{}
		for id := txn.ID(1); id <= 20; id++ {
			n := 1 + rng.Intn(4)
			var ss []txn.Step
			for j := 0; j < n; j++ {
				m := txn.Mode(rng.Intn(2))
				ss = append(ss, txn.Step{Mode: m, Part: txn.PartitionID(rng.Intn(4)), Cost: 1})
			}
			tx := txn.New(id, ss)
			if err := tb.Declare(tx); err != nil {
				t.Fatal(err)
			}
			live[id] = true
			for j, s := range ss {
				reqs = append(reqs, pending{id, j, s.Part, s.Mode})
			}
		}
		for step := 0; step < 400 && len(reqs) > 0; step++ {
			i := rng.Intn(len(reqs))
			q := reqs[i]
			if !live[q.id] {
				reqs = append(reqs[:i], reqs[i+1:]...)
				continue
			}
			if len(tb.Blocked(q.id, q.part, q.mode)) == 0 {
				if err := tb.Grant(q.id, q.part, q.step); err != nil {
					t.Fatalf("legal grant failed: %v", err)
				}
				reqs = append(reqs[:i], reqs[i+1:]...)
			} else if err := tb.Grant(q.id, q.part, q.step); err == nil {
				t.Fatal("blocked grant succeeded")
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				for id := range live {
					tb.Release(id)
					delete(live, id)
					break
				}
			}
		}
	}
}

func TestDeclString(t *testing.T) {
	d := Decl{Txn: 3, Step: 1, Mode: txn.Write, Due: 2.5}
	if got := d.String(); got != "T3/step1:w(due=2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestGrantErrorPaths(t *testing.T) {
	tb := NewTable()
	if err := tb.Grant(1, 0, 0); err == nil {
		t.Error("grant on unknown partition succeeded")
	}
	t1 := mk(1, r(0, 1))
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 0, 5); err == nil {
		t.Error("grant of unknown step succeeded")
	}
	if err := tb.Grant(2, 0, 0); err == nil {
		t.Error("grant by undeclared transaction succeeded")
	}
}

func TestHoldersAndHeldMode(t *testing.T) {
	tb := NewTable()
	if got := tb.Holders(0); got != nil {
		t.Errorf("Holders on empty table = %v", got)
	}
	if _, ok := tb.HeldMode(1, 0); ok {
		t.Error("HeldMode found phantom lock")
	}
	t1 := mk(1, r(0, 1))
	t2 := mk(2, r(0, 1))
	for _, tx := range []*txn.T{t1, t2} {
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Grant(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.Grant(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := tb.Holders(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Holders = %v, want [1 2] sorted", got)
	}
}

func TestIsBlockedMatchesBlocked(t *testing.T) {
	tb := NewTable()
	t1 := mk(1, w(0, 1))
	t2 := mk(2, w(0, 1))
	if err := tb.Declare(t1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Declare(t2); err != nil {
		t.Fatal(err)
	}
	if tb.IsBlocked(2, 0, txn.Write) != (len(tb.Blocked(2, 0, txn.Write)) > 0) {
		t.Error("IsBlocked disagrees with Blocked before grant")
	}
	if err := tb.Grant(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !tb.IsBlocked(2, 0, txn.Write) {
		t.Error("IsBlocked missed the holder")
	}
	if tb.IsBlocked(1, 0, txn.Write) {
		t.Error("holder blocked by itself")
	}
	if tb.IsBlocked(2, 9, txn.Write) {
		t.Error("blocked on untouched partition")
	}
}

func TestConflictingDeclsAppends(t *testing.T) {
	tb := NewTable()
	for id := txn.ID(1); id <= 5; id++ {
		m := txn.Read
		if id%2 == 0 {
			m = txn.Write
		}
		tx := txn.New(id, []txn.Step{{Mode: m, Part: 0, Cost: float64(id)}})
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
	}
	prefix := Decl{Txn: 99}
	got := tb.ConflictingDecls([]Decl{prefix}, 1, 0, txn.Write)
	if len(got) != 5 || got[0] != prefix {
		t.Fatalf("ConflictingDecls = %v, want the prefix then T2..T5", got)
	}
	for i, d := range got[1:] {
		if d.Txn != txn.ID(i+2) {
			t.Errorf("entry %d: %v, want T%d (registration order)", i+1, d, i+2)
		}
	}
	if got := tb.ConflictingDecls(got[:0], 1, 42, txn.Write); len(got) != 0 {
		t.Errorf("decls on an untouched partition: %v", got)
	}
}

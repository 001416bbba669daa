package txn

import (
	"math"
	"testing"
	"testing/quick"
)

func steps(ss ...Step) []Step { return ss }

func TestModeConflicts(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{Read, Read, false},
		{Read, Write, true},
		{Write, Read, true},
		{Write, Write, true},
	}
	for _, c := range cases {
		if got := c.a.Conflicts(c.b); got != c.want {
			t.Errorf("%v.Conflicts(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStepConflicts(t *testing.T) {
	r0 := Step{Read, 0, 1}
	w0 := Step{Write, 0, 1}
	r1 := Step{Read, 1, 1}
	w1 := Step{Write, 1, 1}
	if r0.Conflicts(r1) || w0.Conflicts(w1) || w0.Conflicts(r1) {
		t.Error("steps on different partitions must not conflict")
	}
	if r0.Conflicts(r0) {
		t.Error("read-read on same partition must not conflict")
	}
	if !r0.Conflicts(w0) || !w0.Conflicts(r0) || !w0.Conflicts(w0) {
		t.Error("any pair involving a write on the same partition must conflict")
	}
}

// TestDueFigure1 reproduces the paper's Example 3.1: T1 has steps
// r1(A:1) -> r1(B:3) -> w1(A:1), so due(s0)=5, due(s1)=4, due(s2)=1.
func TestDueFigure1(t *testing.T) {
	t1 := New(1, steps(Step{Read, 0, 1}, Step{Read, 1, 3}, Step{Write, 0, 1}))
	for i, want := range []float64{5, 4, 1} {
		if got := t1.Due(i); got != want {
			t.Errorf("Due(%d) = %g, want %g", i, got, want)
		}
	}
	if t1.DeclaredTotal() != 5 {
		t.Errorf("DeclaredTotal = %g, want 5", t1.DeclaredTotal())
	}
	if t1.TrueTotal() != 5 {
		t.Errorf("TrueTotal = %g, want 5", t1.TrueTotal())
	}
}

func TestDueWithDeclaredErrors(t *testing.T) {
	s := steps(Step{Read, 0, 2}, Step{Write, 1, 4})
	tx := NewDeclared(7, s, []float64{3, 5})
	if got := tx.Due(0); got != 8 {
		t.Errorf("declared Due(0) = %g, want 8", got)
	}
	if got := tx.TrueTotal(); got != 6 {
		t.Errorf("TrueTotal = %g, want 6 (true costs)", got)
	}
}

func TestDuePanics(t *testing.T) {
	tx := New(1, steps(Step{Read, 0, 1}))
	for _, i := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Due(%d) did not panic", i)
				}
			}()
			tx.Due(i)
		}()
	}
}

func TestNewDeclaredValidates(t *testing.T) {
	s := steps(Step{Read, 0, 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		NewDeclared(1, s, []float64{1, 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative declaration did not panic")
			}
		}()
		NewDeclared(1, s, []float64{-1})
	}()
}

// TestCheckDemands: every cost and declaration must lie in
// [0, MaxDemand]; a valid transaction, MaxDemand included, is checked
// without allocating.
func TestCheckDemands(t *testing.T) {
	st := func(c float64) Step { return Step{Mode: Write, Part: 1, Cost: c} }
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]*T{
		"negative cost":   New(1, steps(st(1), st(-1))),
		"NaN cost":        New(1, steps(st(nan))),
		"+Inf cost":       New(1, steps(st(inf))),
		"-Inf cost":       New(1, steps(st(-inf))),
		"NaN declared":    NewDeclared(1, steps(st(1)), []float64{nan}),
		"+Inf declared":   NewDeclared(1, steps(st(1)), []float64{inf}),
		"1e308 costs":     New(1, steps(st(1e308), st(1e308))),
		"1e308 declared":  NewDeclared(1, steps(st(1), st(1)), []float64{1e308, 1e308}),
		"above MaxDemand": New(1, steps(st(MaxDemand+1))),
		"short declared":  {ID: 1, Steps: steps(st(1)), Declared: nil},
	}
	for name, tx := range bad {
		if err := tx.CheckDemands(); err == nil {
			t.Errorf("%s: %v accepted", name, tx)
		}
	}
	good := NewDeclared(2, steps(st(0), st(1.5), st(MaxDemand)), []float64{0, 3, MaxDemand})
	if err := good.CheckDemands(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = good.CheckDemands() }); n != 0 {
		t.Errorf("CheckDemands of a valid transaction: %v allocs, want 0", n)
	}
}

func TestPartitions(t *testing.T) {
	tx := New(1, steps(Step{Read, 3, 1}, Step{Read, 1, 1}, Step{Write, 3, 1}, Step{Write, 2, 1}))
	got := tx.Partitions()
	want := []PartitionID{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Partitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Partitions = %v, want %v", got, want)
		}
	}
}

func TestLockMode(t *testing.T) {
	tx := New(1, steps(Step{Read, 0, 1}, Step{Write, 0, 1}, Step{Read, 1, 2}))
	if m, ok := tx.LockMode(0); !ok || m != Write {
		t.Errorf("LockMode(0) = %v,%v want Write,true", m, ok)
	}
	if m, ok := tx.LockMode(1); !ok || m != Read {
		t.Errorf("LockMode(1) = %v,%v want Read,true", m, ok)
	}
	if _, ok := tx.LockMode(9); ok {
		t.Error("LockMode(9) found a partition the txn never touches")
	}
}

func TestStringNotation(t *testing.T) {
	tx := New(1, steps(Step{Read, 0, 1}, Step{Read, 1, 3}, Step{Write, 0, 0.2}))
	want := "T1: r(P0:1) -> r(P1:3) -> w(P0:0.2)"
	if got := tx.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: due is nonincreasing along the step sequence and
// due(i) - due(i+1) equals the declared cost of step i.
func TestQuickDueTelescopes(t *testing.T) {
	f := func(costs []float64) bool {
		var ss []Step
		var dec []float64
		for i, c := range costs {
			c = math.Abs(c)
			if math.IsNaN(c) || math.IsInf(c, 0) || c > 1e9 {
				c = 1
			}
			ss = append(ss, Step{Mode: Mode(i % 2), Part: PartitionID(i % 5), Cost: c})
			dec = append(dec, c)
		}
		if len(ss) == 0 {
			return true
		}
		tx := NewDeclared(1, ss, dec)
		for i := 0; i < len(ss)-1; i++ {
			d0, d1 := tx.Due(i), tx.Due(i+1)
			if d0 < d1 {
				return false
			}
			if math.Abs((d0-d1)-dec[i]) > 1e-6*(1+math.Abs(dec[i])) {
				return false
			}
		}
		return tx.Due(len(ss)-1) == dec[len(ss)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package txn

import (
	"strings"
	"testing"
)

func TestParsePattern1(t *testing.T) {
	p, err := ParsePattern("Pattern1", "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 4 {
		t.Fatalf("got %d steps, want 4", len(p.Steps))
	}
	want := []StepTemplate{
		{Read, "F1", 1}, {Read, "F2", 5}, {Write, "F1", 0.2}, {Write, "F2", 1},
	}
	for i, w := range want {
		if p.Steps[i] != w {
			t.Errorf("step %d = %+v, want %+v", i, p.Steps[i], w)
		}
	}
	vars := p.Vars()
	if len(vars) != 2 || vars[0] != "F1" || vars[1] != "F2" {
		t.Errorf("Vars = %v, want [F1 F2]", vars)
	}
}

func TestParsePatternWhitespaceTolerant(t *testing.T) {
	p, err := ParsePattern("p", "  r( B : 5 )->w(F1:1)  ->  w(F2:1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 || p.Steps[0].Var != "B" || p.Steps[0].Cost != 5 {
		t.Errorf("unexpected parse: %+v", p.Steps)
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"",
		"x(F1:1)",
		"r(F1)",
		"rF1:1",
		"r(F1:1) -> ",
		"r(:1)",
		"r(1F:1)",
		"r(F-1:1)",
		"r(F1:-2)",
		"r(F1:abc)",
		"r(F1:1) => w(F1:1)",
		"r(F1:NaN)",
		"w(F1:Inf) -> r(F2:1)",
		"r(F1:+Inf)",
		"r(F1:-Inf)",
		"r(F1:infinity)",
		"r(F1:1e308) -> w(F2:1e308)",
		"w(F1:1099511627777)", // MaxDemand + 1
	}
	for _, src := range bad {
		if _, err := ParsePattern("bad", src); err == nil {
			t.Errorf("ParsePattern(%q) succeeded, want error", src)
		}
	}
	if _, err := ParsePattern("max", "w(F1:1099511627776)"); err != nil { // MaxDemand
		t.Errorf("ParsePattern at MaxDemand: %v", err)
	}
}

func TestBind(t *testing.T) {
	p := MustParsePattern("Pattern2", "r(B:5) -> w(F1:1) -> w(F2:1)")
	tx, err := p.Bind(42, map[string]PartitionID{"B": 3, "F1": 9, "F2": 12})
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID != 42 {
		t.Errorf("ID = %v, want 42", tx.ID)
	}
	want := []Step{{Read, 3, 5}, {Write, 9, 1}, {Write, 12, 1}}
	for i, w := range want {
		if tx.Steps[i] != w {
			t.Errorf("step %d = %+v, want %+v", i, tx.Steps[i], w)
		}
	}
	if tx.Due(0) != 7 {
		t.Errorf("Due(0) = %g, want 7", tx.Due(0))
	}
}

func TestBindUnboundVariable(t *testing.T) {
	p := MustParsePattern("p", "r(B:5) -> w(F1:1)")
	if _, err := p.Bind(1, map[string]PartitionID{"B": 0}); err == nil {
		t.Fatal("Bind with unbound variable succeeded")
	} else if !strings.Contains(err.Error(), "F1") {
		t.Errorf("error %q does not name the unbound variable", err)
	}
}

func TestPatternRoundTrip(t *testing.T) {
	src := "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)"
	p := MustParsePattern("Pattern1", src)
	if got := p.String(); got != src {
		t.Errorf("String() = %q, want %q", got, src)
	}
	p2, err := ParsePattern("again", p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != src {
		t.Errorf("round trip changed pattern: %q", p2.String())
	}
}

func TestMustParsePatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParsePattern on invalid input did not panic")
		}
	}()
	MustParsePattern("bad", "nope")
}

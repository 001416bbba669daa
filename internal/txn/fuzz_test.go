package txn

import (
	"strings"
	"testing"
)

// FuzzParsePattern: arbitrary input must never panic; successful parses
// must have costs that pass ValidDemand, and round-trip through String().
func FuzzParsePattern(f *testing.F) {
	seeds := []string{
		"r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)",
		"r(B:5) -> w(F1:1) -> w(F2:1)",
		"w(A:0)",
		"r(_x9:12.75)",
		"",
		"x(F:1)",
		"r(F1:1) ->",
		"r((:1)",
		"r(F1:1e3)",
		"r(F1:NaN) -> w(F2:Inf)",
		strings.Repeat("r(A:1) -> ", 50) + "w(B:1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePattern("fuzz", src)
		if err != nil {
			return
		}
		for _, st := range p.Steps {
			if !ValidDemand(st.Cost) {
				t.Fatalf("%q parsed with cost %g", src, st.Cost)
			}
		}
		out := p.String()
		p2, err := ParsePattern("fuzz2", out)
		if err != nil {
			t.Fatalf("round-trip parse of %q failed: %v", out, err)
		}
		if p2.String() != out {
			t.Fatalf("round-trip changed: %q vs %q", p2.String(), out)
		}
		if len(p2.Steps) != len(p.Steps) {
			t.Fatalf("step count changed: %d vs %d", len(p2.Steps), len(p.Steps))
		}
	})
}

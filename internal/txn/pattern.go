package txn

import (
	"fmt"
	"strconv"
	"strings"
)

// StepTemplate is one step of a workload pattern: an access mode, a
// symbolic partition variable (e.g. "F1" or "B"), and an I/O demand in
// objects. The paper writes Pattern1 as
//
//	r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)
//
// where F1, F2 are bound to concrete partitions per transaction instance.
type StepTemplate struct {
	Mode Mode
	Var  string
	Cost float64
}

// String renders the template step in the paper's notation.
func (s StepTemplate) String() string {
	return fmt.Sprintf("%s(%s:%g)", s.Mode, s.Var, s.Cost)
}

// Pattern is a transaction template: a named sequence of step templates
// over symbolic partition variables.
type Pattern struct {
	Name  string
	Steps []StepTemplate
}

// ParsePattern parses the paper's arrow notation, e.g.
//
//	"r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)"
//
// Variables are arbitrary identifiers (letters, digits, underscore,
// starting with a letter or underscore). Costs are decimals that pass
// ValidDemand, as T.CheckDemands asks of every transaction.
func ParsePattern(name, src string) (*Pattern, error) {
	p := &Pattern{Name: name}
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("txn: empty pattern %q", name)
	}
	for i, tok := range strings.Split(src, "->") {
		st, err := parseStepTemplate(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("txn: pattern %q step %d: %w", name, i, err)
		}
		p.Steps = append(p.Steps, st)
	}
	return p, nil
}

// MustParsePattern is ParsePattern that panics on error; intended for
// package-level pattern constants.
func MustParsePattern(name, src string) *Pattern {
	p, err := ParsePattern(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseStepTemplate(tok string) (StepTemplate, error) {
	var st StepTemplate
	if tok == "" {
		return st, fmt.Errorf("empty step")
	}
	switch tok[0] {
	case 'r':
		st.Mode = Read
	case 'w':
		st.Mode = Write
	default:
		return st, fmt.Errorf("step %q must begin with 'r' or 'w'", tok)
	}
	rest := tok[1:]
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return st, fmt.Errorf("step %q: want %c(VAR:COST)", tok, tok[0])
	}
	body := rest[1 : len(rest)-1]
	colon := strings.LastIndex(body, ":")
	if colon < 0 {
		return st, fmt.Errorf("step %q: missing ':' separator", tok)
	}
	name := strings.TrimSpace(body[:colon])
	costStr := strings.TrimSpace(body[colon+1:])
	if !validVar(name) {
		return st, fmt.Errorf("step %q: invalid variable %q", tok, name)
	}
	cost, err := strconv.ParseFloat(costStr, 64)
	if err != nil {
		return st, fmt.Errorf("step %q: bad cost %q: %v", tok, costStr, err)
	}
	if !ValidDemand(cost) {
		return st, fmt.Errorf("step %q: cost %g outside [0, %g]", tok, cost, float64(MaxDemand))
	}
	st.Var = name
	st.Cost = cost
	return st, nil
}

func validVar(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the pattern in first-use order.
func (p *Pattern) Vars() []string {
	seen := make(map[string]bool, len(p.Steps))
	var out []string
	for _, s := range p.Steps {
		if !seen[s.Var] {
			seen[s.Var] = true
			out = append(out, s.Var)
		}
	}
	return out
}

// Bind instantiates the pattern into a concrete transaction by mapping
// every variable to a partition. Unbound variables are an error; extra
// bindings are ignored.
func (p *Pattern) Bind(id ID, binding map[string]PartitionID) (*T, error) {
	ss := make([]Step, len(p.Steps))
	for i, st := range p.Steps {
		part, ok := binding[st.Var]
		if !ok {
			return nil, fmt.Errorf("txn: pattern %q: unbound variable %q", p.Name, st.Var)
		}
		ss[i] = Step{Mode: st.Mode, Part: part, Cost: st.Cost}
	}
	return New(id, ss), nil
}

// String renders the pattern in the paper's arrow notation.
func (p *Pattern) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, " -> ")
}

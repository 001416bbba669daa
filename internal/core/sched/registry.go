package sched

import (
	"fmt"
	"strings"
)

// This file is the single place in the repository that constructs
// schedulers by name: the CLIs (batsim, batbench), the experiment
// harness and the facade all go through Lookup instead of hand-rolled
// switches. The table is fixed: the paper's five (NODC, ASL, C2PL,
// CHAIN, K<k>) and the Experiment 4 hybrids (CHAIN-C2PL, K<k>-C2PL) —
// adding a scheduler means adding a row.

// exact lists the exact scheduler names, sorted — the order Names and
// the unknown-name error report them in.
var exact = []struct {
	name    string
	factory func() Factory
}{
	{"ASL", ASLFactory},
	{"C2PL", C2PLFactory},
	{"CHAIN", ChainFactory},
	{"CHAIN-C2PL", ChainC2PLFactory},
	{"NODC", NODCFactory},
}

// families lists the parameterized name families, tried in order after
// the exact names. pattern is the human-readable form (listed by Names
// and in error messages); format is the strict form a member must
// round-trip through — "K2X" scans as k=2 but does not print back to
// itself, so trailing garbage a lenient Sscanf would accept is rejected.
var families = []struct {
	pattern, format string
	factory         func(k int) Factory
}{
	{"K<k>", "K%d", KWTPGFactory},
	{"K<k>-C2PL", "K%d-C2PL", KC2PLFactory},
}

// Lookup resolves a scheduler factory by name, case-insensitively and
// ignoring surrounding space. The factory constructor runs once per
// lookup, so schedulers stay stateless between runs. Unknown names error
// with the full list of names and family patterns, so a typo on a
// command line is self-documenting.
func Lookup(name string) (Factory, error) {
	key := strings.ToUpper(strings.TrimSpace(name))
	for _, e := range exact {
		if e.name == key {
			return e.factory(), nil
		}
	}
	for _, fam := range families {
		var k int
		if n, err := fmt.Sscanf(key, fam.format, &k); n == 1 && err == nil && k >= 0 && key == fmt.Sprintf(fam.format, k) {
			return fam.factory(k), nil
		}
	}
	return Factory{}, fmt.Errorf("sched: unknown scheduler %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// MustLookup is Lookup that panics on unknown names — for call sites
// naming built-in schedulers, where a miss is a programming bug.
func MustLookup(name string) Factory {
	f, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Names returns every exact scheduler name (sorted) followed by the
// family patterns.
func Names() []string {
	names := make([]string, 0, len(exact)+len(families))
	for _, e := range exact {
		names = append(names, e.name)
	}
	for _, fam := range families {
		names = append(names, fam.pattern)
	}
	return names
}

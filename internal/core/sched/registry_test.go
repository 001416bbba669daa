package sched

import (
	"strings"
	"testing"
)

// TestRegistryLookup pins the by-name path: case and surrounding space
// are ignored, the factory builds the scheduler it names, and an unknown
// name errors with the full list.
func TestRegistryLookup(t *testing.T) {
	f, err := Lookup(" chain-c2pl ")
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != "CHAIN-C2PL" {
		t.Fatalf("label %q", f.Label)
	}
	if s := f.New(testCosts); s.Name() != "CHAIN-C2PL" {
		t.Fatalf("name %q", s.Name())
	}
	if _, err := Lookup("CHAINX"); err == nil {
		t.Fatal("unknown name did not error")
	} else {
		for _, wantName := range []string{"CHAIN", "NODC", "K<k>", "K<k>-C2PL"} {
			if !strings.Contains(err.Error(), wantName) {
				t.Errorf("unknown-name error does not list %s: %v", wantName, err)
			}
		}
	}
}

// TestRegistryFamilyStrictness pins the family parsers: K names must be
// exactly K<digits> (with optional -C2PL suffix) — trailing garbage
// that a lenient Sscanf would accept is rejected.
func TestRegistryFamilyStrictness(t *testing.T) {
	for _, bad := range []string{"K2X", "K2-C2PLX", "K2.5", "K-3", "K2-"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", bad)
		}
	}
	for _, good := range []string{"K0", "K12", "K12-C2PL"} {
		if _, err := Lookup(good); err != nil {
			t.Errorf("Lookup(%q): %v", good, err)
		}
	}
}

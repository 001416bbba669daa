package sched

import (
	"reflect"
	"strings"
	"testing"

	"batsched/internal/obs"
	"batsched/internal/txn"
)

// disjoint returns n transactions each writing its own partition — no
// pair conflicts, so CHAIN admits all and every cluster is a singleton.
func disjoint(n int) []*txn.T {
	out := make([]*txn.T, n)
	for i := range out {
		out[i] = txn.New(txn.ID(i+1), []txn.Step{w(txn.PartitionID(i), 1)})
	}
	return out
}

// TestEpochAdmitBatchMatchesSequentialAdmit pins the BatchAdmitter
// contract: AdmitBatch decides exactly as per-transaction Admit calls
// in slice order, and leaves the scheduler in a state that grants the
// same subsequent requests.
func TestEpochAdmitBatchMatchesSequentialAdmit(t *testing.T) {
	mk := func() (t1, t2, t3 *txn.T) { return figure1() }

	seq := NewEpoch(testCosts)
	s1, s2, s3 := mk()
	var seqDecisions []Decision
	for _, tx := range []*txn.T{s1, s2, s3} {
		seqDecisions = append(seqDecisions, seq.Admit(tx, 0).Decision)
	}

	bat := NewEpoch(testCosts).(*epoch)
	b1, b2, b3 := mk()
	out := bat.AdmitBatch([]*txn.T{b1, b2, b3}, 0)
	var batDecisions []Decision
	for _, o := range out.Outcomes {
		batDecisions = append(batDecisions, o.Decision)
	}
	if !reflect.DeepEqual(seqDecisions, batDecisions) {
		t.Fatalf("decisions diverged: sequential %v, batch %v", seqDecisions, batDecisions)
	}
	if out.Admitted != 3 {
		t.Fatalf("admitted %d of 3", out.Admitted)
	}
	// Figure 1: T1–T2 and T2–T3 conflict, T1–T3 do not → one cluster.
	if out.Clusters != 1 {
		t.Fatalf("clusters = %d, want 1", out.Clusters)
	}
	// Example 3.3 must still hold against the batch-admitted state.
	if o := bat.Request(b2, 0, 0); o.Decision != Delayed {
		t.Errorf("Request(r2) after batch admit = %v, want delayed", o.Decision)
	}
	if o := bat.Request(b1, 0, 0); o.Decision != Granted {
		t.Errorf("Request(r1) after batch admit = %v, want granted", o.Decision)
	}
}

// TestEpochBatchAmortizesRecomputes is the mode's reason to exist, in
// miniature: N conflict-free transactions admitted one-by-one with
// their first requests interleaved force one W recomputation per
// transaction (each admission invalidates the plan the next request
// must rebuild), while the same N admitted as one batch recompute W
// exactly once.
func TestEpochBatchAmortizesRecomputes(t *testing.T) {
	const n = 8

	drip := NewEpoch(testCosts).(*epoch)
	for _, tx := range disjoint(n) {
		if o := drip.Admit(tx, 0); o.Decision != Granted {
			t.Fatalf("drip admit %v: %v", tx.ID, o.Decision)
		}
		if o := drip.Request(tx, 0, 0); o.Decision != Granted {
			t.Fatalf("drip request %v: %v", tx.ID, o.Decision)
		}
	}
	if drip.recomputes != n {
		t.Fatalf("drip recomputes = %d, want %d", drip.recomputes, n)
	}

	bat := NewEpoch(testCosts).(*epoch)
	ts := disjoint(n)
	out := bat.AdmitBatch(ts, 0)
	if out.Admitted != n {
		t.Fatalf("batch admitted %d of %d", out.Admitted, n)
	}
	if out.CPU != testCosts.ChainTime {
		t.Fatalf("batch CPU = %v, want one ChainTime (%v)", out.CPU, testCosts.ChainTime)
	}
	for i, o := range out.Outcomes {
		if o.CPU != testCosts.DDTime {
			t.Fatalf("outcome %d CPU = %v, want DDTime", i, o.CPU)
		}
	}
	if out.Clusters != n {
		t.Fatalf("clusters = %d, want %d singletons", out.Clusters, n)
	}
	for _, tx := range ts {
		if o := bat.Request(tx, 0, 0); o.Decision != Granted {
			t.Fatalf("batch request %v: %v", tx.ID, o.Decision)
		}
	}
	if bat.recomputes != 1 {
		t.Errorf("batch recomputes = %d, want 1", bat.recomputes)
	}
}

// TestConflictClusters checks the union-find partition on a known
// shape: {0,1} conflict, {2,3} conflict, 4 is alone.
func TestConflictClusters(t *testing.T) {
	ts := []*txn.T{
		txn.New(1, []txn.Step{w(0, 1)}),
		txn.New(2, []txn.Step{r(0, 1), w(5, 1)}),
		txn.New(3, []txn.Step{w(1, 1)}),
		txn.New(4, []txn.Step{w(1, 2)}),
		txn.New(5, []txn.Step{r(9, 1)}),
	}
	got := ConflictClusters(ts)
	want := [][]int{{0, 1}, {2, 3}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ConflictClusters = %v, want %v", got, want)
	}
	if ConflictClusters(nil) != nil {
		t.Error("ConflictClusters(nil) != nil")
	}
}

// TestObservedKeepsBatchSurface pins the decorator rule: wrapping a
// batch-capable scheduler preserves the BatchAdmitter surface, wrapping
// any other scheduler must NOT invent one.
func TestObservedKeepsBatchSurface(t *testing.T) {
	m := obs.NewMetrics()
	wrapped := Observed(NewEpoch(testCosts), m)
	ba, ok := wrapped.(BatchAdmitter)
	if !ok {
		t.Fatal("Observed(EPOCH) lost the BatchAdmitter surface")
	}
	if _, ok := Observed(NewChain(testCosts), m).(BatchAdmitter); ok {
		t.Fatal("Observed(CHAIN) invented a BatchAdmitter surface")
	}
	// Forwarded batches emit one admit decision per member.
	out := ba.AdmitBatch(disjoint(3), 0)
	if out.Admitted != 3 {
		t.Fatalf("admitted %d", out.Admitted)
	}
	sm := m.Sched("EPOCH")
	if sm == nil {
		t.Fatal("no EPOCH metrics")
	}
	if sm.AdmitDecisions()["granted"] != 3 {
		t.Errorf("observed %d granted admits, want 3", sm.AdmitDecisions()["granted"])
	}
}

// TestRegistryLookup covers the default registry: exact names, family
// names, the EPOCH entry, and the self-documenting unknown-name error.
func TestRegistryLookup(t *testing.T) {
	f, err := Lookup("epoch")
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != "EPOCH" {
		t.Fatalf("label %q", f.Label)
	}
	s := f.New(testCosts)
	if s.Name() != "EPOCH" {
		t.Fatalf("name %q", s.Name())
	}
	if _, ok := s.(BatchAdmitter); !ok {
		t.Fatal("registry EPOCH is not a BatchAdmitter")
	}
	if _, err := Lookup("EPOCHX"); err == nil {
		t.Fatal("unknown name did not error")
	} else {
		for _, wantName := range []string{"CHAIN", "EPOCH", "K<k>", "K<k>-C2PL"} {
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

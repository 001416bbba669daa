package sim

import (
	"math"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/txn"
)

// TestDeclusteredSingleStep: a lone 8-object scan on 8 nodes takes one
// object-time under full declustering (every node processes one object in
// parallel) versus eight object-times under mod placement.
func TestDeclusteredSingleStep(t *testing.T) {
	mk := func(declustered bool) *Result {
		cfg := baseConfig()
		cfg.Workload = &fixed{Label: "scan", Txns: []*txn.T{
			txn.New(0, []txn.Step{r(0, 8)}),
		}}
		cfg.MaxTxns = 1
		cfg.Declustered = declustered
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 1 {
			t.Fatalf("completed %d", res.Completed)
		}
		return res
	}
	mod := mk(false)
	dec := mk(true)
	// Mod placement: admit 11 + grant 1 + 8000 processing + commit 10.
	if want := 8.022; math.Abs(mod.MeanRT-want) > 1e-9 {
		t.Errorf("mod RT = %g, want %g", mod.MeanRT, want)
	}
	// Declustered: the 8 sub-jobs of 1 object run in parallel.
	if want := 1.022; math.Abs(dec.MeanRT-want) > 1e-9 {
		t.Errorf("declustered RT = %g, want %g", dec.MeanRT, want)
	}
	// All eight nodes were busy under declustering, one under mod.
	busyMod, busyDec := 0, 0
	for i := range mod.NodeUtilization {
		if mod.NodeUtilization[i] > 0 {
			busyMod++
		}
		if dec.NodeUtilization[i] > 0 {
			busyDec++
		}
	}
	if busyMod != 1 || busyDec != 8 {
		t.Errorf("busy nodes: mod %d (want 1), declustered %d (want 8)", busyMod, busyDec)
	}
}

// TestResponseTimeDecomposition checks that admission wait + lock wait +
// data-node time + commit coordination equals the response time for an
// uncontended transaction.
func TestResponseTimeDecomposition(t *testing.T) {
	cfg := baseConfig()
	cfg.Workload = &fixed{Label: "one", Txns: []*txn.T{
		txn.New(0, []txn.Step{r(0, 2), w(1, 1)}),
	}}
	cfg.MaxTxns = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// admit 11ms, lock waits 1ms per step, DN 2000+1000ms, commit 10ms.
	if math.Abs(res.MeanAdmitWait-0.011) > 1e-9 {
		t.Errorf("MeanAdmitWait = %g, want 0.011", res.MeanAdmitWait)
	}
	if math.Abs(res.MeanLockWait-0.002) > 1e-9 {
		t.Errorf("MeanLockWait = %g, want 0.002", res.MeanLockWait)
	}
	if math.Abs(res.MeanDNTime-3.0) > 1e-9 {
		t.Errorf("MeanDNTime = %g, want 3.0", res.MeanDNTime)
	}
	sum := res.MeanAdmitWait + res.MeanLockWait + res.MeanDNTime + 0.010
	if math.Abs(sum-res.MeanRT) > 1e-9 {
		t.Errorf("decomposition %g != RT %g", sum, res.MeanRT)
	}
}

// TestDecompositionCoversRT: on a contended workload the decomposition
// parts never exceed the response time and lock wait grows with
// contention.
func TestDecompositionCoversRT(t *testing.T) {
	low := baseConfig()
	low.ArrivalRate = 0.1
	high := baseConfig()
	high.ArrivalRate = 0.8
	rl, err := Run(low)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(high)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{rl, rh} {
		if r.MeanAdmitWait+r.MeanLockWait+r.MeanDNTime > r.MeanRT+1e-6 {
			t.Errorf("decomposition exceeds RT: %+v", r)
		}
	}
	if rh.MeanLockWait <= rl.MeanLockWait {
		t.Errorf("lock wait did not grow with load: %g vs %g", rl.MeanLockWait, rh.MeanLockWait)
	}
}

// TestDeclusteredSerializable runs a contended declustered workload under
// each WTPG scheduler and checks serializability still holds.
func TestDeclusteredSerializable(t *testing.T) {
	for _, f := range []sched.Factory{sched.ChainFactory(), sched.KWTPGFactory(2), sched.C2PLFactory()} {
		cfg := baseConfig()
		cfg.Scheduler = f
		cfg.Declustered = true
		cfg.ArrivalRate = 0.6
		cfg.Horizon = 200_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: no completions", f.Label)
		}
	}
}

// TestDeclusteredWeightAccounting: weight messages from parallel
// sub-jobs must decrement w(T0→Ti) by exactly the step cost in total —
// the run completes and the graph never underflows (AddW0 clamps, but a
// mismatch would break CHAIN's optimizer inputs). Exercised via CHAIN,
// which consumes the weights.
func TestDeclusteredWeightAccounting(t *testing.T) {
	cfg := baseConfig()
	cfg.Scheduler = sched.ChainFactory()
	cfg.Declustered = true
	cfg.ArrivalRate = 0.5
	cfg.Horizon = 300_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
}

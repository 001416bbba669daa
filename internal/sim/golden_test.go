package sim

import (
	"math"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// TestGoldenTwoWriterSchedule is a fully hand-computed contention
// scenario. Machine defaults: ddtime 1, chaintime 5, kwtpgtime 3,
// startuptime 10, committime 10, ObjTime 1000 (all ms).
//
// C2PL timeline (grant decision costs ddtime = 1):
//
//	T1 = w(P0:3) arrives at t=0: admit decided over 1+10 → admitted 11;
//	  request submitted 11, granted 12; objects 1012/2012/3012; commit
//	  picked up 3012, complete 3022 → RT₁ = 3022 ms.
//	T2 = w(P0:1) arrives at t=100: admitted 111; request submitted 111,
//	  decided blocked at 112; woken by T1's commit 3022; granted 3023;
//	  object 4023; complete 4033 → RT₂ = 3933 ms. Mean RT = 3477.5 ms.
//	Lock waits run from submission to grant: T1 1 ms, T2 2912 ms.
//
// CHAIN additionally pays chaintime = 5 on each W recomputation (every
// request here follows a start or commit): grants shift by 5 ms each,
// mean RT = 3485 ms. K2 pays kwtpgtime = 3 for the single fresh E(q) of
// each grant (blocked evaluations compute no E): mean RT = 3482 ms.
func TestGoldenTwoWriterSchedule(t *testing.T) {
	for _, tc := range []struct {
		factory      sched.Factory
		meanRT       float64
		meanLockWait float64
	}{
		{sched.C2PLFactory(), 3.4775, (0.001 + 2.912) / 2},
		{sched.ChainFactory(), 3.4850, (0.006 + 2.922) / 2},
		{sched.KWTPGFactory(2), 3.4820, (0.004 + 2.918) / 2},
	} {
		f := tc.factory
		cfg := baseConfig()
		cfg.Scheduler = f
		cfg.Workload = &fixed{Label: "two", Txns: []*txn.T{
			txn.New(0, []txn.Step{w(0, 3)}),
			txn.New(0, []txn.Step{w(0, 1)}),
		}}
		cfg.ArrivalTimes = []event.Time{0, 100}
		cfg.ArrivalRate = 0
		cfg.Horizon = 100_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		if res.Completed != 2 {
			t.Fatalf("%s: completed %d", f.Label, res.Completed)
		}
		if math.Abs(res.MeanRT-tc.meanRT) > 1e-9 {
			t.Errorf("%s: MeanRT = %.4f s, want %.4f s", f.Label, res.MeanRT, tc.meanRT)
		}
		if res.RequestBlocks != 1 {
			t.Errorf("%s: blocks = %d, want 1", f.Label, res.RequestBlocks)
		}
		if res.RequestDelays != 0 {
			t.Errorf("%s: delays = %d, want 0", f.Label, res.RequestDelays)
		}
		// Decomposition: admit waits are 11 ms each; lock waits run from
		// request submission to grant; DN time is 3000 + 1000 ms.
		if want := 0.011; math.Abs(res.MeanAdmitWait-want) > 1e-9 {
			t.Errorf("%s: MeanAdmitWait = %g", f.Label, res.MeanAdmitWait)
		}
		if math.Abs(res.MeanLockWait-tc.meanLockWait) > 1e-9 {
			t.Errorf("%s: MeanLockWait = %g, want %g", f.Label, res.MeanLockWait, tc.meanLockWait)
		}
		if want := 2.0; math.Abs(res.MeanDNTime-want) > 1e-9 {
			t.Errorf("%s: MeanDNTime = %g, want %g", f.Label, res.MeanDNTime, want)
		}
	}
}

// TestGoldenASLRetryQuantization: under ASL the second writer cannot
// start until T1 commits, and start attempts are quantized by the 500 ms
// retry delay, so T2 finishes strictly later than under the blocking
// schedulers.
func TestGoldenASLRetryQuantization(t *testing.T) {
	cfg := baseConfig()
	cfg.Scheduler = sched.ASLFactory()
	cfg.Workload = &fixed{Label: "two", Txns: []*txn.T{
		txn.New(0, []txn.Step{w(0, 3)}),
		txn.New(0, []txn.Step{w(0, 1)}),
	}}
	cfg.ArrivalTimes = []event.Time{0, 100}
	cfg.ArrivalRate = 0
	cfg.Horizon = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.AdmissionDelays == 0 {
		t.Error("ASL never refused the second start")
	}
	// ASL grants all locks at admission, so T1 is granted at 11 and
	// completes at 3021. T2's start attempts are decided at 100, 601,
	// 1102, …, 3106 (501 ms apart); the 3106 attempt succeeds, T2 is
	// admitted 3117, its object finishes 4117 and it completes 4127.
	// Mean RT = (3021 + (4127-100))/2 = 3524 ms.
	if want := 3.5240; math.Abs(res.MeanRT-want) > 1e-9 {
		t.Errorf("MeanRT = %.4f s, want %.4f s", res.MeanRT, want)
	}
}

// TestExplicitArrivalsRespectHorizon: arrivals beyond the horizon are
// dropped.
func TestExplicitArrivalsRespectHorizon(t *testing.T) {
	cfg := baseConfig()
	cfg.Workload = &fixed{Label: "x", Txns: []*txn.T{
		txn.New(0, []txn.Step{r(0, 1)}),
		txn.New(0, []txn.Step{r(0, 1)}),
	}}
	cfg.ArrivalTimes = []event.Time{10, 99_999_999}
	cfg.ArrivalRate = 0
	cfg.Horizon = 50_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 1 {
		t.Errorf("arrived %d, want 1", res.Arrived)
	}
}

package sim

import (
	"reflect"
	"strings"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/workload"
)

// epochConfig is chaosConfig with the epoch scheduler and a batch
// window; window 0 keeps the per-arrival admission path.
func epochConfig(window event.Time, seed int64) Config {
	cfg := chaosConfig(sched.MustLookup("EPOCH"), seed)
	cfg.BatchWindow = window
	return cfg
}

// TestEpochWindowZeroIsChain is the differential pin: with a zero batch
// window the EPOCH scheduler is driven per-arrival and must reproduce
// CHAIN's runs exactly — every counter, every response time, every
// sample — across seeds, differing only in the scheduler label. This is
// what makes EPOCH an extension of CHAIN rather than a fork of it.
func TestEpochWindowZeroIsChain(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		chainRes, err := Run(chaosConfig(sched.ChainFactory(), seed))
		if err != nil {
			t.Fatalf("seed %d CHAIN: %v", seed, err)
		}
		epochRes, err := Run(epochConfig(0, seed))
		if err != nil {
			t.Fatalf("seed %d EPOCH: %v", seed, err)
		}
		if epochRes.Scheduler != "EPOCH" {
			t.Fatalf("seed %d: scheduler label %q", seed, epochRes.Scheduler)
		}
		epochRes.Scheduler = chainRes.Scheduler
		if !reflect.DeepEqual(chainRes, epochRes) {
			t.Errorf("seed %d: EPOCH@window=0 diverged from CHAIN:\nchain: %+v\nepoch: %+v",
				seed, chainRes, epochRes)
		}
	}
}

// TestEpochBatching drives EPOCH with a real window and checks the
// batching machinery: windows flush, batch sizes are sane, every
// arrival still commits, the schedule stays serializable (checker +
// SelfCheck are on in the base config), and the flush events reach the
// observability pipeline.
func TestEpochBatching(t *testing.T) {
	metrics := obs.NewMetrics()
	res, err := Run(epochConfig(2000, 11), WithTrace(metrics))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs flushed")
	}
	if res.MaxBatch < 1 || res.MeanBatch < 1 {
		t.Fatalf("batch stats: max %d mean %g", res.MaxBatch, res.MeanBatch)
	}
	if res.MaxBatch < 2 {
		t.Fatalf("window 2000 at λ=4 never batched two arrivals (max batch %d)", res.MaxBatch)
	}
	if res.Completed != res.Arrived {
		t.Fatalf("completed %d of %d arrivals", res.Completed, res.Arrived)
	}
	if res.MaxClusters < 1 {
		t.Fatalf("max clusters %d", res.MaxClusters)
	}
	sm := metrics.Sched("EPOCH")
	if sm == nil {
		t.Fatal("no EPOCH metrics")
	}
	if int(sm.Epochs) != res.Epochs {
		t.Fatalf("metrics saw %d epoch flushes, result %d", sm.Epochs, res.Epochs)
	}
	if sm.BatchSize.Count() == 0 || sm.BatchSize.Max() != float64(res.MaxBatch) {
		t.Fatalf("batch-size histogram n=%d max=%g vs result max %d",
			sm.BatchSize.Count(), sm.BatchSize.Max(), res.MaxBatch)
	}
}

// TestEpochAdmitWaitReflectsWindow sanity-checks the admission delay a
// window introduces: arrivals wait for the boundary, so the mean
// admission wait under a wide window must exceed the per-arrival one.
func TestEpochAdmitWaitReflectsWindow(t *testing.T) {
	narrow, err := Run(epochConfig(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(epochConfig(5000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if wide.MeanAdmitWait <= narrow.MeanAdmitWait {
		t.Errorf("window 5000 admit wait %g ≤ per-arrival %g",
			wide.MeanAdmitWait, narrow.MeanAdmitWait)
	}
}

// TestBatchWindowNeedsBatchAdmitter pins the config validation: a batch
// window only works with a batch-capable scheduler, and the error names
// the offender.
func TestBatchWindowNeedsBatchAdmitter(t *testing.T) {
	cfg := chaosConfig(sched.ChainFactory(), 1)
	cfg.BatchWindow = 1000
	if _, err := Run(cfg); err == nil {
		t.Fatal("CHAIN with a batch window did not error")
	} else if !strings.Contains(err.Error(), "CHAIN") {
		t.Fatalf("error does not name the scheduler: %v", err)
	}
	cfg.BatchWindow = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative batch window did not error")
	}
}

// TestChaosEpoch is the chaos matrix for the epoch path: 100 seeds of
// injected mid-run aborts, slow partitions and admission-refusal bursts
// against EPOCH with a real batch window. Refused and rejected arrivals
// must roll into later epochs and eventually commit: every run ends
// with nothing wedged, every arrival committed or injected-aborted, a
// serializable schedule, and recovery events matching injected aborts.
func TestChaosEpoch(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	cfgFaults := fault.Config{
		AbortRate:        0.25,
		SlowIORate:       0.25,
		SlowIOFactor:     3,
		AdmitRefusalRate: 0.25,
	}
	aborts, refusals, epochs := 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		inj, err := fault.New(uint64(seed)+1, cfgFaults)
		if err != nil {
			t.Fatal(err)
		}
		metrics, h := obs.NewMetrics(), modelcheck.NewHistory()
		res, err := Run(epochConfig(1000, int64(seed)), WithFaults(inj), WithTrace(obs.Multi(metrics, h)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := h.Certify(modelcheck.Evidence{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.LiveAtEnd != 0 {
			t.Fatalf("seed %d: %d transactions wedged at the horizon", seed, res.LiveAtEnd)
		}
		if res.Completed+res.InjectedAborts != res.Arrived {
			t.Fatalf("seed %d: arrived %d != completed %d + injected aborts %d",
				seed, res.Arrived, res.Completed, res.InjectedAborts)
		}
		sm := metrics.Sched(res.Scheduler)
		if sm == nil {
			t.Fatalf("seed %d: no metrics for %s", seed, res.Scheduler)
		}
		if int(sm.Recoveries) != res.InjectedAborts {
			t.Fatalf("seed %d: %d abort-recovery events for %d injected aborts",
				seed, sm.Recoveries, res.InjectedAborts)
		}
		aborts += res.InjectedAborts
		refusals += res.InjectedRefusals
		epochs += res.Epochs
	}
	if aborts == 0 {
		t.Errorf("no injected aborts across %d seeds", seeds)
	}
	if refusals == 0 {
		t.Errorf("no injected admission refusals across %d seeds", seeds)
	}
	if epochs == 0 {
		t.Errorf("no epochs flushed across %d seeds", seeds)
	}
	t.Logf("EPOCH: %d injected aborts, %d refusals, %d epochs over %d seeds", aborts, refusals, epochs, seeds)
}

// TestEpochDeterminism locks in the determinism contract for the epoch
// path: same (Config, Seed) twice gives identical Results, including
// the new batch counters.
func TestEpochDeterminism(t *testing.T) {
	a, err := Run(epochConfig(1500, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(epochConfig(1500, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("epoch run not deterministic:\na: %+v\nb: %+v", a, b)
	}
}

// TestEpochFixedReleaseBatch releases a fixed batch of simultaneous
// arrivals and checks the whole release lands in the first window: the
// first flush sees all of them (MaxBatch), rejected members roll into
// later epochs until everything commits, and the committed schedule is
// serializable (checker on in the base config).
func TestEpochFixedReleaseBatch(t *testing.T) {
	m := machine.DefaultConfig()
	m.NumNodes = 4
	m.NumParts = 8
	cfg := Config{
		Machine:              m,
		Scheduler:            sched.MustLookup("EPOCH"),
		Workload:             workload.Experiment1(m.NumParts),
		Horizon:              10_000_000,
		Seed:                 5,
		CheckSerializability: true,
		SelfCheck:            true,
		BatchWindow:          1000,
	}
	const release = 16
	for i := 0; i < release; i++ {
		cfg.ArrivalTimes = append(cfg.ArrivalTimes, 1)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxBatch != release {
		t.Errorf("first flush batched %d of %d released arrivals", res.MaxBatch, release)
	}
	if res.Completed != release {
		t.Errorf("completed %d of %d", res.Completed, release)
	}
	if res.Epochs < 1 {
		t.Errorf("epochs %d", res.Epochs)
	}
	// A rejected member resubmits through its own retry handler although
	// submitAdmit never built an admission job for it (it returned early
	// into the window's buffer): this run must have taken that path.
	if res.AdmissionAborts+res.AdmissionDelays == 0 {
		t.Error("no batch member was rejected, so no retry under EPOCH was exercised")
	}
}

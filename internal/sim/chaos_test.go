package sim

import (
	"reflect"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/workload"
)

// chaosConfig is a small machine driven hard enough that injected
// faults land while locks are held and precedence edges are resolved.
func chaosConfig(f sched.Factory, seed int64) Config {
	m := machine.DefaultConfig()
	m.NumNodes = 4
	m.NumParts = 8
	m.ObjTime = 100
	m.RetryDelay = 50
	return Config{
		Machine:              m,
		Scheduler:            f,
		Workload:             workload.Experiment1(m.NumParts),
		ArrivalRate:          4,
		Horizon:              10_000_000, // effectively unbounded: MaxTxns ends the run
		Seed:                 seed,
		MaxTxns:              25,
		CheckSerializability: true,
		SelfCheck:            true,
	}
}

// TestChaosMatrix is the seeded fault-injection suite: for each
// scheduler under test, 100 seeds of injected mid-run aborts under both
// placements — the paper's node = partition mod NumNodes, and full
// declustering, where an abort must cancel the step's sibling sub-jobs
// on every other node. Every run must finish with zero invariant
// violations (SelfCheck panics otherwise), a serializable committed
// schedule, no transactions wedged at the horizon, and every arrival
// accounted for as either committed or injected-aborted — faults may
// slow the machine down but must never deadlock it or strand a
// survivor.
func TestChaosMatrix(t *testing.T) {
	factories := []sched.Factory{
		sched.ASLFactory(),
		sched.C2PLFactory(),
		sched.ChainFactory(),
		sched.KWTPGFactory(2),
	}
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for _, f := range factories {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			for _, declustered := range []bool{false, true} {
				aborts := 0
				for seed := 0; seed < seeds; seed++ {
					inj, err := fault.New(uint64(seed)+1, fault.Config{AbortRate: 0.25})
					if err != nil {
						t.Fatal(err)
					}
					cfg := chaosConfig(f, int64(seed))
					cfg.Declustered = declustered
					metrics, h := obs.NewMetrics(), modelcheck.NewHistory()
					res, err := Run(cfg, WithFaults(inj), WithTrace(obs.Multi(metrics, h)))
					if err != nil {
						t.Fatalf("declustered=%v seed %d: %v", declustered, seed, err)
					}
					if err := h.Certify(modelcheck.Evidence{}); err != nil {
						t.Fatalf("declustered=%v seed %d: %v", declustered, seed, err)
					}
					if res.LiveAtEnd != 0 {
						t.Fatalf("declustered=%v seed %d: %d transactions wedged at the horizon", declustered, seed, res.LiveAtEnd)
					}
					if res.Completed+res.InjectedAborts != res.Arrived {
						t.Fatalf("declustered=%v seed %d: arrived %d != completed %d + injected aborts %d",
							declustered, seed, res.Arrived, res.Completed, res.InjectedAborts)
					}
					sm := metrics.Sched(res.Scheduler)
					if sm == nil {
						t.Fatalf("declustered=%v seed %d: no metrics for %s", declustered, seed, res.Scheduler)
					}
					if int(sm.Recoveries) != res.InjectedAborts {
						t.Fatalf("declustered=%v seed %d: %d abort-recovery events for %d injected aborts",
							declustered, seed, sm.Recoveries, res.InjectedAborts)
					}
					aborts += res.InjectedAborts
				}
				// The matrix must actually exercise the recovery path: at
				// the configured rate a fault-free matrix means the
				// injector came unwired.
				if aborts == 0 {
					t.Errorf("%s declustered=%v: no injected aborts across %d seeds", f.Label, declustered, seeds)
				}
				t.Logf("%s declustered=%v: %d injected aborts over %d seeds", f.Label, declustered, aborts, seeds)
			}
		})
	}
}

// TestFaultsOffIsByteIdentical locks in the zero-cost guarantee: a run
// with a disabled injector produces exactly the same Result as a run
// with no injector at all.
func TestFaultsOffIsByteIdentical(t *testing.T) {
	cfg := chaosConfig(sched.ChainFactory(), 7)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	disabled, err := fault.New(9, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(cfg, WithFaults(disabled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, faulted) {
		t.Errorf("disabled injector changed the result:\nbase:    %+v\nfaulted: %+v", base, faulted)
	}
}

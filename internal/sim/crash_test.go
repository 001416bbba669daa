package sim

import (
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/workload"
)

// TestChaosNodeCrashMatrix is the node-crash dimension of the chaos
// suite: for each scheduler, 100 seeds × {0, 1, 2} crashed nodes on the
// 4-node chaos machine. Every run must terminate with nothing wedged,
// every arrival accounted for (committed, injected-aborted or
// crash-aborted), the injected crash count honored exactly, and the
// node-crash observability (node-down / re-home / requeue events and
// the abort-recovery count) consistent with the run's counters.
// SelfCheck panics on any scheduler invariant violation, and the
// serializability check runs on every committed schedule.
func TestChaosNodeCrashMatrix(t *testing.T) {
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
			requeues, crashAborts := 0, 0
			for _, crashed := range []int{0, 1, 2} {
				for seed := 0; seed < seeds; seed++ {
					inj, err := fault.New(uint64(seed)+1, fault.Config{
						NodeCrashes:     crashed,
						NodeCrashWindow: 30_000,
					})
					if err != nil {
						t.Fatal(err)
					}
					metrics, h := obs.NewMetrics(), modelcheck.NewHistory()
					res, err := Run(chaosConfig(f, int64(seed)), WithFaults(inj), WithTrace(obs.Multi(metrics, h)))
					if err != nil {
						t.Fatalf("crashed=%d seed %d: %v", crashed, seed, err)
					}
					if err := h.Certify(modelcheck.Evidence{}); err != nil {
						t.Fatalf("crashed=%d seed %d: %v", crashed, seed, err)
					}
					if res.LiveAtEnd != 0 {
						t.Fatalf("crashed=%d seed %d: %d transactions wedged", crashed, seed, res.LiveAtEnd)
					}
					if res.Completed+res.InjectedAborts+res.CrashAborts != res.Arrived {
						t.Fatalf("crashed=%d seed %d: arrived %d != completed %d + injected %d + crash aborts %d",
							crashed, seed, res.Arrived, res.Completed, res.InjectedAborts, res.CrashAborts)
					}
					if res.NodeCrashes != crashed {
						t.Fatalf("crashed=%d seed %d: %d node crashes fired", crashed, seed, res.NodeCrashes)
					}
					sm := metrics.Sched(res.Scheduler)
					if sm == nil {
						t.Fatalf("crashed=%d seed %d: no metrics", crashed, seed)
					}
					if int(sm.NodeDowns) != res.NodeCrashes ||
						int(sm.Rehomes) != res.RehomedParts ||
						int(sm.Requeues) != res.RequeuedJobs {
						t.Fatalf("crashed=%d seed %d: obs (%d downs, %d rehomes, %d requeues) vs result (%d, %d, %d)",
							crashed, seed, sm.NodeDowns, sm.Rehomes, sm.Requeues,
							res.NodeCrashes, res.RehomedParts, res.RequeuedJobs)
					}
					// Every abort — injected or crash-induced — runs the
					// scheduler's recovery path exactly once.
					if int(sm.Recoveries) != res.InjectedAborts+res.CrashAborts {
						t.Fatalf("crashed=%d seed %d: %d recoveries for %d+%d aborts",
							crashed, seed, sm.Recoveries, res.InjectedAborts, res.CrashAborts)
					}
					requeues += res.RequeuedJobs
					crashAborts += res.CrashAborts
				}
			}
			// The matrix must exercise both recovery outcomes somewhere.
			if requeues == 0 {
				t.Errorf("%s: no job requeued across the matrix", f.Label)
			}
			if crashAborts == 0 {
				t.Errorf("%s: no crash-abort across the matrix", f.Label)
			}
			t.Logf("%s: %d requeues, %d crash aborts over %d runs", f.Label, requeues, crashAborts, 3*seeds)
		})
	}
}

// TestCrashedCommitsAreSubsetOfCleanRun is the differential recovery
// test: for each injected crash, replay the same (Config, Seed) —
// hence the same arrivals and the same declared transactions — on the
// post-crash topology (DeadNodes) with no faults. The crash-free run
// must commit everything, and the crashed run's committed set must be
// a subset of it: recovery may abort transactions but must never
// commit one the clean machine would not (no phantom commits).
func TestCrashedCommitsAreSubsetOfCleanRun(t *testing.T) {
	factories := []sched.Factory{
		sched.ASLFactory(),
		sched.C2PLFactory(),
		sched.ChainFactory(),
		sched.KWTPGFactory(2),
	}
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for _, f := range factories {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			diffed := 0
			for seed := 0; seed < seeds; seed++ {
				inj, err := fault.New(uint64(seed)+1, fault.Config{
					NodeCrashes:     1,
					NodeCrashWindow: 20_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				committed, deadNodes := runCollectingCommits(t, chaosConfig(f, int64(seed)), inj)
				if len(deadNodes) != 1 {
					t.Fatalf("seed %d: %d node-down events, want 1", seed, len(deadNodes))
				}
				cleanCfg := chaosConfig(f, int64(seed))
				cleanCfg.DeadNodes = deadNodes
				clean, _ := runCollectingCommits(t, cleanCfg, nil)
				if len(clean) < len(committed) {
					t.Fatalf("seed %d: clean run committed %d < crashed run's %d", seed, len(clean), len(committed))
				}
				for id := range committed {
					if !clean[id] {
						t.Errorf("seed %d: phantom commit %v — crashed run committed it, clean run did not", seed, id)
					}
				}
				if len(committed) < len(clean) {
					diffed++ // the crash actually cost commits somewhere
				}
			}
			if diffed == 0 {
				t.Logf("%s: no seed lost a commit to the crash (all recoverable)", f.Label)
			}
		})
	}
}

// observerFunc adapts a function to obs.Observer.
type observerFunc func(obs.Event)

func (f observerFunc) Observe(e obs.Event) { f(e) }

// runCollectingCommits runs one simulation, returning the set of
// committed transaction IDs and the nodes reported down. The run must
// terminate with every arrival accounted for.
func runCollectingCommits(t *testing.T, cfg Config, inj *fault.Injector) (map[int64]bool, []int) {
	t.Helper()
	committed := make(map[int64]bool)
	var deadNodes []int
	collect := observerFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindCommit:
			if e.Decision != "aborted" {
				committed[int64(e.Txn)] = true
			}
		case obs.KindNodeDown:
			deadNodes = append(deadNodes, e.Node)
		}
	})
	opts := []Option{WithTrace(collect)}
	if inj != nil {
		opts = append(opts, WithFaults(inj))
	}
	res, err := Run(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveAtEnd != 0 {
		t.Fatalf("%d transactions wedged at the horizon", res.LiveAtEnd)
	}
	if res.Completed+res.InjectedAborts+res.CrashAborts != res.Arrived {
		t.Fatalf("arrived %d != completed %d + injected %d + crash aborts %d",
			res.Arrived, res.Completed, res.InjectedAborts, res.CrashAborts)
	}
	if len(committed) != res.Completed {
		t.Fatalf("observed %d commit events, result says %d", len(committed), res.Completed)
	}
	return committed, deadNodes
}

// TestNodeCrashRecoverySeeded is the acceptance scenario: the paper's
// 8-node machine loses 1 node mid-run. The run must terminate with
// every recoverable transaction committed, the unrecoverable ones
// aborted through the scheduler's Splice recovery (visible as abort
// events), and the node-down / re-home / requeue trail in the trace.
// The test scans seeds until one exercises both recovery outcomes, so
// the assertions always run against a crash that actually hurt.
func TestNodeCrashRecoverySeeded(t *testing.T) {
	m := machine.DefaultConfig() // 8 nodes, 16 partitions
	m.ObjTime = 100
	m.RetryDelay = 50
	for seed := int64(0); seed < 50; seed++ {
		inj, err := fault.New(uint64(seed)+1, fault.Config{
			NodeCrashes:     1,
			NodeCrashWindow: 20_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		metrics := obs.NewMetrics()
		res, err := Run(Config{
			Machine:              m,
			Scheduler:            sched.KWTPGFactory(2),
			Workload:             workload.Experiment1(m.NumParts),
			ArrivalRate:          6,
			Horizon:              10_000_000,
			Seed:                 seed,
			MaxTxns:              40,
			CheckSerializability: true,
			SelfCheck:            true,
		}, WithFaults(inj), WithTrace(metrics))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.NodeCrashes != 1 {
			t.Fatalf("seed %d: %d crashes fired, want 1", seed, res.NodeCrashes)
		}
		if res.LiveAtEnd != 0 {
			t.Fatalf("seed %d: %d transactions wedged after the crash", seed, res.LiveAtEnd)
		}
		if res.Completed+res.CrashAborts != res.Arrived {
			t.Fatalf("seed %d: arrived %d != completed %d + crash aborts %d",
				seed, res.Arrived, res.Completed, res.CrashAborts)
		}
		if res.CrashAborts == 0 || res.RequeuedJobs == 0 {
			continue // crash landed too soft; try the next seed
		}
		sm := metrics.Sched(res.Scheduler)
		if sm.NodeDowns != 1 {
			t.Fatalf("seed %d: %d node-down events", seed, sm.NodeDowns)
		}
		if int(sm.Rehomes) != res.RehomedParts || res.RehomedParts == 0 {
			t.Fatalf("seed %d: %d re-home events for %d re-homed partitions", seed, sm.Rehomes, res.RehomedParts)
		}
		if int(sm.Requeues) != res.RequeuedJobs {
			t.Fatalf("seed %d: %d requeue events for %d requeued jobs", seed, sm.Requeues, res.RequeuedJobs)
		}
		// Unrecoverable transactions went through the scheduler's abort
		// recovery (Splice), not silent disappearance.
		if int(sm.Recoveries) != res.CrashAborts {
			t.Fatalf("seed %d: %d recovery events for %d crash aborts", seed, sm.Recoveries, res.CrashAborts)
		}
		t.Logf("seed %d: %d committed, %d crash-aborted, %d requeued, %d partitions re-homed",
			seed, res.Completed, res.CrashAborts, res.RequeuedJobs, res.RehomedParts)
		return
	}
	t.Fatal("no seed in [0,50) produced both a requeue and a crash abort")
}

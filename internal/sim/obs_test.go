package sim

import (
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/machine"
	"batsched/internal/obs"
	"batsched/internal/workload"
)

// TestRunWithTrace runs a short simulation with a structured observer
// and checks the event stream is complete and consistent with the
// aggregate result.
func TestRunWithTrace(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	metrics := obs.NewMetrics()
	cfg := Config{
		Machine:              machine.DefaultConfig(),
		Scheduler:            sched.KWTPGFactory(2),
		Workload:             workload.Experiment1(16),
		ArrivalRate:          0.6,
		Horizon:              120_000,
		Seed:                 7,
		CheckSerializability: true,
	}
	res, err := Run(cfg, WithTrace(obs.Multi(ring, metrics)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed; horizon too short for the test")
	}

	counts := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		counts[e.Kind]++
		if e.Sched != res.Scheduler {
			t.Fatalf("event labeled %q, result scheduler %q", e.Sched, res.Scheduler)
		}
	}
	if len(ring.Events()) == 1<<16 {
		t.Fatal("ring full: events may have been evicted; enlarge the buffer")
	}
	if counts[obs.KindAdmit] != res.Arrived {
		t.Errorf("Admit events %d, arrived %d", counts[obs.KindAdmit], res.Arrived)
	}
	if counts[obs.KindCommit] != res.Completed {
		t.Errorf("Commit events %d, completed %d", counts[obs.KindCommit], res.Completed)
	}
	if counts[obs.KindDecision] == 0 || counts[obs.KindObjectDone] == 0 {
		t.Errorf("missing control-plane events: %v", counts)
	}
	if counts[obs.KindResolve] == 0 {
		t.Errorf("no Resolve events at λ=0.6 (conflicts expected): %v", counts)
	}

	sm := metrics.Sched(res.Scheduler)
	if sm == nil {
		t.Fatal("metrics missing scheduler entry")
	}
	if int(sm.Commits) != res.Completed {
		t.Errorf("metrics commits %d, result %d", sm.Commits, res.Completed)
	}
	granted := sm.AdmitDecisions()["granted"]
	if int(granted) != res.Admitted {
		t.Errorf("granted admits %d, result admitted %d", granted, res.Admitted)
	}
	if blocked := sm.RequestDecisions()["blocked"]; int(blocked) != res.RequestBlocks {
		t.Errorf("blocked decisions %d, result blocks %d", blocked, res.RequestBlocks)
	}
}

// TestRunTraceDeterminismUnaffected: attaching an observer must not
// change the simulated outcome.
func TestRunTraceDeterminismUnaffected(t *testing.T) {
	cfg := Config{
		Machine:     machine.DefaultConfig(),
		Scheduler:   sched.ChainFactory(),
		Workload:    workload.Experiment1(16),
		ArrivalRate: 0.4,
		Horizon:     80_000,
		Seed:        11,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(cfg, WithTrace(obs.Nop{}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completed != traced.Completed || plain.MeanRT != traced.MeanRT ||
		plain.RequestBlocks != traced.RequestBlocks || plain.CNUtilization != traced.CNUtilization {
		t.Errorf("observer changed the run: %+v vs %+v", plain, traced)
	}
}

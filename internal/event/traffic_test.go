package event_test

import (
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/sim"
	"batsched/internal/workload"
)

// TestRetryTrafficInLane measures the lane's traffic claim on an
// overloaded Poisson cell, Figure 6's C2PL at λ 1.1 over the full
// horizon: after every fired event the heap holds at most NumNodes + 3
// events (one quantum per data node, the control node's job, the next
// arrival and the sampler), and every §3.2 retry the run counts — each
// delayed or aborted admission and each delayed request — passed through
// the lane, fired or still pending at the horizon.
func TestRetryTrafficInLane(t *testing.T) {
	m := machine.DefaultConfig()
	cfg := sim.Config{
		Machine:     m,
		Scheduler:   sched.C2PLFactory(),
		Workload:    workload.Experiment1(16),
		ArrivalRate: 1.1,
		Horizon:     2_000_000,
		Seed:        11990,
	}
	var cal *event.Queue
	maxHeap, maxLane, laneFired, fired := 0, 0, 0, 0
	defer event.ProbeSteps(func(q *event.Queue, lane bool) {
		cal = q
		fired++
		if lane {
			laneFired++
		}
		maxHeap = max(maxHeap, q.HeapLen())
		maxLane = max(maxLane, q.LaneLen())
	})()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bound := m.NumNodes + 3; maxHeap > bound {
		t.Errorf("heap held %d events, want at most NumNodes+3 = %d", maxHeap, bound)
	}
	retries := res.AdmissionDelays + res.AdmissionAborts + res.RequestDelays
	if lane := laneFired + cal.LaneLen(); lane != retries {
		t.Errorf("%d events went through the lane (%d fired, %d pending), want the run's %d retries",
			lane, laneFired, cal.LaneLen(), retries)
	}
	if maxLane <= maxHeap {
		t.Errorf("lane peaked at %d events, heap at %d: the cell is not overloaded", maxLane, maxHeap)
	}
	t.Logf("%d events fired, %d from the lane; peak lane %d, peak heap %d", fired, laneFired, maxLane, maxHeap)
}

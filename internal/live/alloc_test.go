package live

import (
	"context"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/txn"
)

// TestRunSteadyStateAllocs pins what an uncontended Run costs the heap once
// the controller is warm: the step loop's Progress closure. The control
// node itself — the lock table, C(q), the K-admission test and CHAIN's
// W — allocates nothing, for every scheduler family the paper's
// experiments lean on.
func TestRunSteadyStateAllocs(t *testing.T) {
	const limit = 1
	work := func(step int, p Progress) error {
		p(1)
		return nil
	}
	for _, f := range []sched.Factory{sched.C2PLFactory(), sched.KWTPGFactory(2), sched.ChainFactory()} {
		t.Run(f.Label, func(t *testing.T) {
			ctl := New(f, liveCosts)
			defer ctl.Close()
			// Pattern2's shape on partitions of its own, one transaction at
			// a time: never a conflict, so every call is granted at once.
			pool := make([]*txn.T, 64)
			for i := range pool {
				pool[i] = txn.New(txn.ID(i+1), []txn.Step{r(0, 5), w(1, 1), w(2, 1)})
			}
			ctx := context.Background()
			n := 0
			run := func() {
				if err := ctl.Run(ctx, pool[n%len(pool)], work); err != nil {
					t.Fatal(err)
				}
				n++
			}
			for range 4 * len(pool) {
				run()
			}
			got := testing.AllocsPerRun(500, run)
			t.Logf("%s: %.0f allocations per uncontended Run", f.Label, got)
			if got > limit {
				t.Errorf("%s: %.0f allocations per uncontended Run, want ≤ %d", f.Label, got, limit)
			}
		})
	}
}

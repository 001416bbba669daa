package experiments

import (
	"fmt"
	"sort"
	"strings"

	"batsched/internal/sim"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// MixedResult reports the mixed-workload experiment: short on-line
// transactions sharing the machine with BATs, per scheduler.
type MixedResult struct {
	Lambda     float64
	ShortShare float64
	Rows       []MixedRow
}

// MixedRow is one scheduler's outcome in the mixed workload.
type MixedRow struct {
	Scheduler      string
	ShortMeanRT    float64 // seconds
	BATMeanRT      float64 // seconds
	ShortCompleted int
	BATCompleted   int
	Throughput     float64
}

// RunMixedWorkload runs the paper's conclusion scenario: a mixture of
// short transactions (share shortShare of arrivals, tiny per-step
// demands but full partition locks) and Pattern1 BATs, at total arrival
// rate lambda. It reports per-class response times for each scheduler —
// quantifying "different schedulers are necessary for different classes
// of jobs".
func RunMixedWorkload(o Options, lambda, shortShare float64, opts ...Option) (*MixedResult, error) {
	o = o.withDefaults()
	if lambda <= 0 {
		lambda = 1.0
	}
	if shortShare <= 0 || shortShare >= 1 {
		shortShare = 0.8
	}
	// One cell per scheduler: one λ, one seed.
	o.Lambdas, o.Replications = []float64{lambda}, 1
	sets, err := runGrid(o, []func(*sim.Config){func(c *sim.Config) {
		mix, err := workload.NewMixture("mixed",
			workload.Component{Class: "short", Weight: shortShare,
				Gen: workload.ShortTransactions(16, 0.02)},
			workload.Component{Class: "bat", Weight: 1 - shortShare,
				Gen: workload.Experiment1(16)},
		)
		if err != nil {
			panic(err) // unreachable: both weights lie in (0, 1) and both generators are set
		}
		c.Machine.NumParts = 16
		c.Workload = mix
		c.Classify = func(t *txn.T) string { return mix.ClassOf(t.ID) }
	}}, factoriesByName("NODC", "ASL", "CHAIN", "K2", "C2PL"), opts)
	if err != nil {
		return nil, err
	}
	res := &MixedResult{Lambda: lambda, ShortShare: shortShare}
	for _, s := range sets[0] {
		r := s.Points[0].Result
		res.Rows = append(res.Rows, MixedRow{
			Scheduler:      r.Scheduler,
			ShortMeanRT:    r.ClassMeanRT["short"],
			BATMeanRT:      r.ClassMeanRT["bat"],
			ShortCompleted: r.ClassCompleted["short"],
			BATCompleted:   r.ClassCompleted["bat"],
			Throughput:     r.Throughput,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Scheduler < res.Rows[j].Scheduler })
	return res, nil
}

// Render formats the mixed-workload table.
func (r *MixedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed workload: %.0f%% short transactions + %.0f%% Pattern1 BATs at λ = %g TPS\n",
		100*r.ShortShare, 100*(1-r.ShortShare), r.Lambda)
	fmt.Fprintf(&b, "  %-12s %14s %12s %10s %8s %10s\n",
		"scheduler", "short RT (s)", "BAT RT (s)", "shorts", "BATs", "total TPS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %14.2f %12.2f %10d %8d %10.3f\n",
			row.Scheduler, row.ShortMeanRT, row.BATMeanRT,
			row.ShortCompleted, row.BATCompleted, row.Throughput)
	}
	return b.String()
}

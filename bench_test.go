// Macro-benchmarks regenerating each figure of the paper's evaluation
// section (one benchmark per figure, plus one for the Table 1 machine
// defaults used by all of them). They run the real experiment harness at
// a reduced horizon so `go test -bench=.` completes in minutes; the
// full-length regeneration is `go run ./cmd/batbench -all`.
//
// Custom metrics report the paper's headline numbers: tps@rt70/<sched>
// is the interpolated throughput at mean response time 70 s.
package batsched_test

import (
	"fmt"
	"testing"

	"batsched"
)

// benchOpts are reduced-horizon settings for benchmark runs.
func benchOpts(seed int64) batsched.ExperimentOptions {
	return batsched.ExperimentOptions{
		Machine:         batsched.DefaultMachine(),
		Horizon:         300_000,
		Seed:            seed,
		Lambdas:         []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		RTTargetSeconds: 70,
	}
}

// BenchmarkFigure6 regenerates Experiment 1's response-time curves
// (Figure 6) and reports the λ=0.6 mean response times per scheduler.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := batsched.RunExperiment1(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Sweeps {
			for _, p := range s.Points {
				if p.Lambda == 0.6 {
					b.ReportMetric(p.Result.MeanRT, "rt@0.6/"+s.Label)
				}
			}
		}
	}
}

// BenchmarkFigure7 regenerates Experiment 1's throughput curves
// (Figure 7) and reports throughput at RT = 70 s per scheduler.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := batsched.RunExperiment1(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Sweeps {
			tps, _ := s.ThroughputAt(r.RTTarget)
			b.ReportMetric(tps, "tps@rt70/"+s.Label)
		}
	}
}

// BenchmarkFigure8 regenerates Experiment 2 (hot-set sweep, Figure 8)
// and reports each scheduler's throughput at NumHots = 4 and 32.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := batsched.RunExperiment2(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for label, tps := range r.TPS {
			b.ReportMetric(tps[0], fmt.Sprintf("tps@hots%d/%s", r.NumHots[0], label))
			last := len(tps) - 1
			b.ReportMetric(tps[last], fmt.Sprintf("tps@hots%d/%s", r.NumHots[last], label))
		}
	}
}

// BenchmarkFigure9 regenerates Experiment 3 (Pattern3 response times,
// Figure 9) and reports throughput at RT = 70 s per scheduler.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := batsched.RunExperiment3(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Sweeps {
			tps, _ := s.ThroughputAt(r.RTTarget)
			b.ReportMetric(tps, "tps@rt70/"+s.Label)
		}
	}
}

// BenchmarkFigure10 regenerates Experiment 4 (declaration-error
// sensitivity, Figure 10) at σ ∈ {0, 1} and reports each scheduler's
// relative throughput retention at σ = 1.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := batsched.RunExperiment4(benchOpts(int64(i+1)), []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		for label, tps := range r.TPS {
			b.ReportMetric(tps[0], "tps@sig0/"+label)
			b.ReportMetric(tps[1], "tps@sig1/"+label)
		}
	}
}

// BenchmarkTable1SingleRun measures the cost of one default-machine
// simulation run (the unit of every figure's grid).
func BenchmarkTable1SingleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := batsched.SimConfig{
			Machine:              batsched.DefaultMachine(),
			Scheduler:            batsched.KWTPG(2),
			Workload:             batsched.WorkloadExperiment1(16),
			ArrivalRate:          0.6,
			Horizon:              200_000,
			Seed:                 int64(i + 1),
			CheckSerializability: true,
		}
		if _, err := batsched.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakespanPlanner measures planning a 24-BAT batch across two
// strategies under the K2 scheduler (the examples/makespan workload).
func BenchmarkMakespanPlanner(b *testing.B) {
	batch := batsched.RandomBatch(batsched.WorkloadExperiment1(16), 24, 42)
	for i := 0; i < b.N; i++ {
		evals, err := batsched.ComparePlans(batch, batsched.DefaultMachine(),
			[]batsched.SchedulerFactory{batsched.KWTPG(2)},
			[]batsched.PlanStrategy{batsched.Flood{}, batsched.Stagger{Gap: 2000}},
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(evals[0].Makespan), "best-makespan-ms")
	}
}

// BenchmarkAblationKeeptime measures the §3.4 control-saving ablation at
// reduced scale: CHAIN with caching disabled vs the 5 s default.
func BenchmarkAblationKeeptime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, keeptime := range []batsched.Time{0, 5000} {
			mc := batsched.DefaultMachine()
			mc.Control.KeepTime = keeptime
			res, err := batsched.Simulate(batsched.SimConfig{
				Machine:              mc,
				Scheduler:            batsched.CHAIN(),
				Workload:             batsched.WorkloadExperiment1(16),
				ArrivalRate:          0.6,
				Horizon:              300_000,
				Seed:                 int64(i + 1),
				CheckSerializability: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.CNUtilization, fmt.Sprintf("cn-util@keep%d", keeptime))
			b.ReportMetric(res.Throughput, fmt.Sprintf("tps@keep%d", keeptime))
		}
	}
}

// BenchmarkAblationPlacement measures mod vs declustered placement (the
// §4.3 intra-transaction-parallelism ablation) at reduced scale.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, declustered := range []bool{false, true} {
			res, err := batsched.Simulate(batsched.SimConfig{
				Machine:              batsched.DefaultMachine(),
				Scheduler:            batsched.KWTPG(2),
				Workload:             batsched.WorkloadExperiment1(16),
				ArrivalRate:          0.6,
				Horizon:              300_000,
				Seed:                 int64(i + 1),
				CheckSerializability: true,
				Declustered:          declustered,
			})
			if err != nil {
				b.Fatal(err)
			}
			label := "mod"
			if declustered {
				label = "declustered"
			}
			b.ReportMetric(res.MeanNodeUtil, "dn-util/"+label)
			b.ReportMetric(res.MeanRT, "rt/"+label)
		}
	}
}

package experiments

import (
	"runtime"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/machine"
	"batsched/internal/workload"
)

// benchSweep runs the 8-way smoke grid (2 schedulers × 4 arrival rates,
// reduced horizon) through the worker pool at the given parallelism.
// BenchmarkSweepParallel1 vs BenchmarkSweepParallelN is the harness's
// scaling measurement — meaningful only on a host with several cores.
func benchSweep(b *testing.B, workers int) {
	o := Options{
		Machine:         machine.DefaultConfig(),
		Horizon:         60_000,
		Seed:            1990,
		RTTargetSeconds: 70,
	}
	o.Machine.NumParts = 16
	lambdas := []float64{0.2, 0.5, 0.8, 1.1}
	factories := []sched.Factory{sched.ASLFactory(), sched.KWTPGFactory(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := runGrid(o, factories, lambdas, func() workload.Generator {
			return workload.Experiment1(16)
		}, WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		if len(sweeps) != len(factories) {
			b.Fatalf("got %d sweeps", len(sweeps))
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepParallelN(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

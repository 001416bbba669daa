package experiments

import (
	"runtime"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/machine"
	"batsched/internal/sim"
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
		Lambdas:         []float64{0.2, 0.5, 0.8, 1.1},
		RTTargetSeconds: 70,
	}.withDefaults()
	factories := []sched.Factory{sched.ASLFactory(), sched.KWTPGFactory(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets, err := runGrid(o, []func(*sim.Config){pattern1}, factories, []Option{WithParallelism(workers)})
		if err != nil {
			b.Fatal(err)
		}
		if len(sets[0]) != len(factories) {
			b.Fatalf("got %d sweeps", len(sets[0]))
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepParallelN(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

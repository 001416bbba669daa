// Package experiments defines and runs the paper's four evaluation
// experiments (§4) and regenerates every figure of the evaluation
// section:
//
//	Figure 6  — Experiment 1: arrival rate vs. mean response time
//	Figure 7  — Experiment 1: arrival rate vs. throughput
//	Figure 8  — Experiment 2: NumHots vs. throughput at RT = 70 s
//	Figure 9  — Experiment 3: arrival rate vs. mean response time
//	Figure 10 — Experiment 4: declaration error σ vs. throughput at RT = 70 s
//
// Individual simulation runs are deterministic; the harness fans the
// (scheduler × λ × replicate) grid onto a fixed worker pool
// (WithParallelism, default runtime.NumCPU()), using the same seed for
// every scheduler at the same sweep point so comparisons are paired.
// Every run is a pure function of (config, seed) with fully private
// state — its own sim instance, RNG, fault injector and obs sinks —
// and results land in pre-indexed slots, with shared-sink delivery
// serialized in grid order, so output is byte-identical at every
// parallelism level (see docs/PERFORMANCE.md §6).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/sim"
	"batsched/internal/stats"
	"batsched/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Machine is the Table 1 machine configuration.
	Machine machine.Config
	// Horizon is the simulated duration (paper: 2,000,000 ms).
	Horizon event.Time
	// Seed is the base random seed.
	Seed int64
	// Lambdas overrides the default arrival-rate sweep (TPS).
	Lambdas []float64
	// RTTargetSeconds is the comparison response time (paper: 70 s).
	RTTargetSeconds float64
	// Replications runs each grid cell with this many seeds and averages
	// the metrics (0 or 1 = single run, as in the paper). Seeds stay
	// paired across schedulers.
	Replications int
	// Progress, if set, receives (completedRuns, totalRuns) updates.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.Machine.NumNodes == 0 {
		o.Machine = machine.DefaultConfig()
	}
	if o.Horizon == 0 {
		o.Horizon = 2_000_000
	}
	if o.RTTargetSeconds == 0 {
		o.RTTargetSeconds = 70
	}
	if o.Seed == 0 {
		o.Seed = 1990
	}
	if o.Replications < 1 {
		o.Replications = 1
	}
	return o
}

// Point is one measured sweep point. With Replications > 1, Result holds
// the cross-seed average (see aggregate) and Replicates the individual
// runs.
type Point struct {
	Lambda     float64
	Result     *sim.Result
	Replicates []*sim.Result
	// TPSStd is the cross-seed standard deviation of the throughput
	// (0 for single runs).
	TPSStd float64
}

// Sweep is one scheduler's arrival-rate sweep.
type Sweep struct {
	Label  string
	Points []Point
}

// SweepPoints converts to the stats package's interpolation input.
func (s Sweep) SweepPoints() []stats.SweepPoint {
	out := make([]stats.SweepPoint, len(s.Points))
	for i, p := range s.Points {
		out[i] = stats.SweepPoint{Lambda: p.Lambda, RT: p.Result.MeanRT, TPS: p.Result.Throughput}
	}
	return out
}

// ThroughputAt interpolates the sweep's throughput at the given mean
// response time (seconds).
func (s Sweep) ThroughputAt(rtSeconds float64) (float64, bool) {
	return stats.ThroughputAtRT(s.SweepPoints(), rtSeconds)
}

type job struct {
	schedIdx, lambdaIdx, rep int
	cfg                      sim.Config
}

// runJobs executes the given simulation configs on a fixed pool of
// `workers` goroutines pulling job indices from a channel. Every run is
// fully isolated — its own sim instance, seed-derived RNG and fault
// injector (sim.Run builds all three from the config), plus the private
// trace buffer from runConfig.forJob — and its result lands in the
// pre-indexed slot results[i], so downstream assembly never depends on
// completion order. Per-run trace buffers are replayed into the shared
// observer in job order by orderedFlush. Progress (if non-nil) is
// called with monotonically increasing completion counts under a lock.
func runJobs(rc runConfig, cfgs []sim.Config,
	progress func(done, total int)) ([]*sim.Result, []error) {

	n := len(cfgs)
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	workers := rc.parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	flush := newOrderedFlush(rc.trace, n)
	var mu sync.Mutex
	done := 0
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				trace, simOpts := rc.forJob()
				results[i], errs[i] = sim.Run(cfgs[i], simOpts...)
				flush.complete(i, trace)
				if progress != nil {
					mu.Lock()
					done++
					progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}

// runGrid executes the (factory × lambda) grid on the worker pool. The
// workload constructor is called once per run so stateful generators are
// never shared. Serializability checking is enabled for every scheduler
// except NODC (which is intentionally non-serializable).
func runGrid(o Options, factories []sched.Factory, lambdas []float64,
	newWorkload func() workload.Generator, opts ...Option) ([]Sweep, error) {
	return runGridMutate(o, factories, lambdas, newWorkload, nil, opts...)
}

// runGridMutate is runGrid with a per-run config hook (used by the
// ablation experiments to flip placement, costs, etc.). The grid is
// flattened scheduler-major into a job list, fanned onto the pool, and
// reassembled from the indexed result slots — identical output at every
// parallelism level.
func runGridMutate(o Options, factories []sched.Factory, lambdas []float64,
	newWorkload func() workload.Generator, mutate func(*sim.Config), opts ...Option) ([]Sweep, error) {

	rc := buildRunConfig(opts)
	reps := o.Replications
	if reps < 1 {
		reps = 1
	}
	var jobs []job
	var cfgs []sim.Config
	for si, f := range factories {
		for li, l := range lambdas {
			for rep := 0; rep < reps; rep++ {
				cfg := sim.Config{
					Machine:     o.Machine,
					Scheduler:   f,
					Workload:    newWorkload(),
					ArrivalRate: l,
					Horizon:     o.Horizon,
					// Paired across schedulers: the seed depends only on
					// the sweep point and the replicate index.
					Seed:                 o.Seed + int64(li*1000+rep),
					CheckSerializability: f.Label != "NODC",
				}
				if mutate != nil {
					mutate(&cfg)
				}
				jobs = append(jobs, job{schedIdx: si, lambdaIdx: li, rep: rep, cfg: cfg})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results, errs := runJobs(rc, cfgs, o.Progress)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s @ λ=%g: %w",
				factories[jobs[i].schedIdx].Label, jobs[i].cfg.ArrivalRate, err)
		}
	}
	// Group replicates per (scheduler, lambda) cell and aggregate.
	cells := make(map[[2]int][]*sim.Result)
	for i, j := range jobs {
		key := [2]int{j.schedIdx, j.lambdaIdx}
		cells[key] = append(cells[key], results[i])
	}
	sweeps := make([]Sweep, len(factories))
	for si, f := range factories {
		sweeps[si].Label = f.Label
		for li, l := range lambdas {
			key := [2]int{si, li}
			reps := cells[key]
			p := Point{Lambda: l, Result: aggregate(reps)}
			if len(reps) > 1 {
				p.Replicates = reps
				p.TPSStd = tpsStd(reps)
			}
			sweeps[si].Points = append(sweeps[si].Points, p)
		}
	}
	for si := range sweeps {
		sort.Slice(sweeps[si].Points, func(a, b int) bool {
			return sweeps[si].Points[a].Lambda < sweeps[si].Points[b].Lambda
		})
	}
	return sweeps, nil
}

// aggregate averages replicate runs into one representative result:
// counts are summed, response-time statistics are weighted by measured
// completions, rate and utilization metrics are averaged.
func aggregate(reps []*sim.Result) *sim.Result {
	if len(reps) == 1 {
		return reps[0]
	}
	out := *reps[0]
	out.NodeUtilization = append([]float64(nil), reps[0].NodeUtilization...)
	// Per-class metrics and time series are per-run artifacts; the
	// aggregate must not alias replicate 0's. Read them from Replicates.
	out.ClassMeanRT = nil
	out.ClassCompleted = nil
	out.Samples = nil
	var rtW, admitW, lockW, dnW float64
	totalMeasured := 0
	out.Arrived, out.Admitted, out.Completed, out.Measured = 0, 0, 0, 0
	out.AdmissionDelays, out.AdmissionAborts = 0, 0
	out.RequestDelays, out.RequestBlocks, out.LiveAtEnd = 0, 0, 0
	out.Throughput, out.CNUtilization, out.MeanNodeUtil = 0, 0, 0
	out.MaxLive, out.P95RT, out.MaxRT = 0, 0, 0
	for i := range out.NodeUtilization {
		out.NodeUtilization[i] = 0
	}
	for _, r := range reps {
		out.Arrived += r.Arrived
		out.Admitted += r.Admitted
		out.Completed += r.Completed
		out.Measured += r.Measured
		out.AdmissionDelays += r.AdmissionDelays
		out.AdmissionAborts += r.AdmissionAborts
		out.RequestDelays += r.RequestDelays
		out.RequestBlocks += r.RequestBlocks
		out.LiveAtEnd += r.LiveAtEnd
		w := float64(r.Measured)
		rtW += w * r.MeanRT
		admitW += w * r.MeanAdmitWait
		lockW += w * r.MeanLockWait
		dnW += w * r.MeanDNTime
		totalMeasured += r.Measured
		out.Throughput += r.Throughput / float64(len(reps))
		out.CNUtilization += r.CNUtilization / float64(len(reps))
		out.MeanNodeUtil += r.MeanNodeUtil / float64(len(reps))
		for i := range r.NodeUtilization {
			out.NodeUtilization[i] += r.NodeUtilization[i] / float64(len(reps))
		}
		if r.MaxLive > out.MaxLive {
			out.MaxLive = r.MaxLive
		}
		if r.P95RT > out.P95RT {
			out.P95RT = r.P95RT
		}
		if r.MaxRT > out.MaxRT {
			out.MaxRT = r.MaxRT
		}
		if r.LastCompletion > out.LastCompletion {
			out.LastCompletion = r.LastCompletion
		}
	}
	if totalMeasured > 0 {
		tm := float64(totalMeasured)
		out.MeanRT = rtW / tm
		out.MeanAdmitWait = admitW / tm
		out.MeanLockWait = lockW / tm
		out.MeanDNTime = dnW / tm
	}
	return &out
}

// tpsStd is the cross-seed standard deviation of throughput.
func tpsStd(reps []*sim.Result) float64 {
	var w stats.Welford
	for _, r := range reps {
		w.Add(r.Throughput)
	}
	return w.Std()
}

// defaultLambdas returns the default arrival-rate sweep for Experiment 1
// and 3 style figures (TPS). The paper plots λ up to just past resource
// saturation (λ_S ≈ 1.08 TPS in Experiment 1).
func defaultLambdas() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1}
}

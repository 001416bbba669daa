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
// Every experiment — the figures, the ablations and the mixed table — is
// one grid of variant × scheduler × λ × replicate cells (runGrid), where
// a variant is a config hook (Figure 8's NumHots, Figure 10's σ, an
// ablation's setting). Each grid runs as one pass over
// a fixed worker pool (WithParallelism, default runtime.NumCPU()), using
// the same seed for every scheduler and variant at the same sweep point
// so comparisons are paired.
// Every run is a pure function of (config, seed) with fully private
// state — its own sim instance, RNG, fault injector and obs sinks —
// and results land in pre-indexed slots, with shared-sink delivery
// serialized in grid order, so output is byte-identical at every
// parallelism level (see docs/PERFORMANCE.md §6).
package experiments

import (
	"fmt"
	"math"
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
	// Lambdas is the arrival-rate sweep (TPS); nil selects 0.1 to 1.1 in
	// steps of 0.1.
	Lambdas []float64
	// RTTargetSeconds is the comparison response time (paper: 70 s).
	RTTargetSeconds float64
	// Replications runs each grid cell with this many seeds and averages
	// the metrics (0 or 1 = single run, as in the paper). Seeds stay
	// paired across schedulers.
	Replications int
	// Progress, if set, receives (completedRuns, totalRuns) updates: one
	// count per experiment, rising to the size of its whole grid.
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
	if o.Lambdas == nil {
		// The paper plots λ up to just past resource saturation
		// (λ_S ≈ 1.08 TPS in Experiment 1).
		o.Lambdas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1}
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

// cellConfig is the configuration of one grid cell: variant under
// scheduler f at λ o.Lambdas[li], replicate rep.
func cellConfig(o Options, variant func(*sim.Config), f sched.Factory, li, rep int) sim.Config {
	cfg := sim.Config{
		Machine:              o.Machine,
		Scheduler:            f,
		ArrivalRate:          o.Lambdas[li],
		Horizon:              o.Horizon,
		Seed:                 o.Seed + int64(li*1000+rep),
		CheckSerializability: f.Label != "NODC",
	}
	variant(&cfg)
	return cfg
}

// runGrid runs one experiment — variants × schedulers × o.Lambdas ×
// o.Replications cells — as a single runJobs call and returns one set
// of sweeps per variant. A variant is a config hook: it sets the cell's
// workload, built fresh for every cell so stateful generators are never
// shared, and whatever else the variant changes (partitions, placement,
// control costs, KeepTime, RetryDelay, ...). Cells are
// flattened variant-major, then scheduler, λ and replicate, and read
// back from their pre-indexed result slots, so the output is identical
// at every parallelism level. The seed depends only on the λ index and
// the replicate, which pairs it across schedulers and variants.
// Serializability is checked for every scheduler except NODC (which is
// intentionally non-serializable).
func runGrid(o Options, variants []func(*sim.Config), factories []sched.Factory,
	opts []Option) ([][]Sweep, error) {

	nl, reps := len(o.Lambdas), o.Replications
	cfgs := make([]sim.Config, 0, len(variants)*len(factories)*nl*reps)
	for _, variant := range variants {
		for _, f := range factories {
			for li := range o.Lambdas {
				for rep := 0; rep < reps; rep++ {
					cfgs = append(cfgs, cellConfig(o, variant, f, li, rep))
				}
			}
		}
	}
	results, errs := runJobs(buildRunConfig(opts), cfgs, o.Progress)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: variant %d, %s @ λ=%g: %w",
				i/(len(factories)*nl*reps), cfgs[i].Scheduler.Label, cfgs[i].ArrivalRate, err)
		}
	}
	sets := make([][]Sweep, len(variants))
	for vi := range sets {
		sets[vi] = make([]Sweep, len(factories))
		for si, f := range factories {
			sw := Sweep{Label: f.Label, Points: make([]Point, nl)}
			for li, l := range o.Lambdas {
				i := ((vi*len(factories)+si)*nl + li) * reps
				cell := results[i : i+reps : i+reps]
				p := Point{Lambda: l, Result: aggregate(cell)}
				if reps > 1 {
					p.Replicates = cell
					p.TPSStd = tpsStd(cell)
				}
				sw.Points[li] = p
			}
			sort.Slice(sw.Points, func(a, b int) bool { return sw.Points[a].Lambda < sw.Points[b].Lambda })
			sets[vi][si] = sw
		}
	}
	return sets, nil
}

// variantsOf builds one variant per axis value x, each applying set(c, x).
func variantsOf[T any](xs []T, set func(c *sim.Config, x T)) []func(*sim.Config) {
	out := make([]func(*sim.Config), len(xs))
	for i, x := range xs {
		x := x
		out[i] = func(c *sim.Config) { set(c, x) }
	}
	return out
}

// pattern1 is the Experiment 1 variant: Pattern1 over 16 partitions.
func pattern1(c *sim.Config) {
	c.Machine.NumParts = 16
	c.Workload = workload.Experiment1(16)
}

// byLabel tabulates f over every variant's sweeps: out[label][v] is f of
// scheduler label's sweep in variant v.
func byLabel(sets [][]Sweep, f func(Sweep) float64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, set := range sets {
		for _, s := range set {
			out[s.Label] = append(out[s.Label], f(s))
		}
	}
	return out
}

// tpsAt is a byLabel metric: the sweep's throughput at the RT target.
func tpsAt(rtTarget float64) func(Sweep) float64 {
	return func(s Sweep) float64 {
		tps, _ := s.ThroughputAt(rtTarget)
		return tps
	}
}

// aggregate folds replicate runs into one representative result: counts
// are summed (so Result's Arrived = Completed + InjectedAborts +
// LiveAtEnd + … identity still holds), maxima and the tail
// percentiles take the maximum, response-time means are weighted by
// measured completions and StdRT is pooled over them, and rate and
// utilization metrics are averaged.
// Per-class metrics and time series are per-run artifacts and stay nil:
// read them from the replicates.
func aggregate(reps []*sim.Result) *sim.Result {
	if len(reps) == 1 {
		return reps[0]
	}
	r0 := reps[0]
	out := &sim.Result{
		Scheduler:              r0.Scheduler,
		Workload:               r0.Workload,
		ArrivalRate:            r0.ArrivalRate,
		Horizon:                r0.Horizon,
		NodeUtilization:        make([]float64, len(r0.NodeUtilization)),
		SerializabilityChecked: true,
	}
	n := float64(len(reps))
	var rtW, admitW, lockW, dnW float64
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
		out.InjectedAborts += r.InjectedAborts
		w := float64(r.Measured)
		rtW += w * r.MeanRT
		admitW += w * r.MeanAdmitWait
		lockW += w * r.MeanLockWait
		dnW += w * r.MeanDNTime
		out.Throughput += r.Throughput / n
		out.CNUtilization += r.CNUtilization / n
		out.MeanNodeUtil += r.MeanNodeUtil / n
		for i := range r.NodeUtilization {
			out.NodeUtilization[i] += r.NodeUtilization[i] / n
		}
		out.MaxLive = max(out.MaxLive, r.MaxLive)
		out.P95RT = max(out.P95RT, r.P95RT)
		out.P99RT = max(out.P99RT, r.P99RT)
		out.MaxRT = max(out.MaxRT, r.MaxRT)
		out.LastCompletion = max(out.LastCompletion, r.LastCompletion)
		out.SerializabilityChecked = out.SerializabilityChecked && r.SerializabilityChecked
	}
	if out.Measured > 0 {
		tm := float64(out.Measured)
		out.MeanRT = rtW / tm
		out.MeanAdmitWait = admitW / tm
		out.MeanLockWait = lockW / tm
		out.MeanDNTime = dnW / tm
	}
	// The pooled sample deviation: each replicate contributes its own
	// squared deviations, (n-1)·s², plus n·(its mean − the pooled mean)².
	if out.Measured > 1 {
		var ss float64
		for _, r := range reps {
			if r.Measured > 0 {
				d := r.MeanRT - out.MeanRT
				ss += float64(r.Measured-1)*r.StdRT*r.StdRT + float64(r.Measured)*d*d
			}
		}
		out.StdRT = math.Sqrt(ss / float64(out.Measured-1))
	}
	return out
}

// tpsStd is the cross-seed standard deviation of throughput.
func tpsStd(reps []*sim.Result) float64 {
	var w stats.Welford
	for _, r := range reps {
		w.Add(r.Throughput)
	}
	return w.Std()
}

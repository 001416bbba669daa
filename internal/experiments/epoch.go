package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"batsched/internal/event"
	"batsched/internal/sim"
	"batsched/internal/workload"
)

// This file is the batch-window sweep: a fixed Pattern1 arrival stream
// scheduled by EPOCH at increasing admission windows, against the
// per-arrival baseline (window 0, which is exactly CHAIN — pinned by
// TestEpochWindowZeroIsChain). It quantifies the epoch trade the paper's
// off-line batch framing (§1) implies: wider windows amortize the O(N²)
// W computation over more admissions and expose more conflict-free
// clusters per flush, while every arrival pays up to one window of
// admission latency.

// EpochSweepRow is one window size's outcome.
type EpochSweepRow struct {
	// Window is the admission window in clocks (0 = per-arrival CHAIN
	// baseline).
	Window event.Time `json:"window_ms"`
	// Makespan is the commit time of the last completed transaction.
	Makespan event.Time `json:"makespan_ms"`
	MeanRT   float64    `json:"mean_rt_s"`
	P99RT    float64    `json:"p99_rt_s"`
	// Throughput is completed transactions per second.
	Throughput float64 `json:"throughput_tps"`
	Completed  int     `json:"completed"`
	// Epochs, MaxBatch, MeanBatch and MaxClusters are the sim's
	// epoch-flush counters (all zero on the window-0 baseline row).
	Epochs      int     `json:"epochs"`
	MaxBatch    int     `json:"max_batch"`
	MeanBatch   float64 `json:"mean_batch"`
	MaxClusters int     `json:"max_clusters"`
}

// EpochSweepResult is the full batch-window sweep.
type EpochSweepResult struct {
	Scheduler string          `json:"scheduler"`
	Lambda    float64         `json:"lambda_tps"`
	MaxTxns   int             `json:"max_txns"`
	Seed      int64           `json:"seed"`
	Note      string          `json:"note"`
	Rows      []EpochSweepRow `json:"rows"`
}

// DefaultEpochWindows is the default sweep axis: the per-arrival
// baseline plus five window sizes spanning two decades around the mean
// Pattern1 inter-arrival time.
func DefaultEpochWindows() []event.Time {
	return []event.Time{0, 500, 1000, 2000, 5000, 10000}
}

// RunEpochSweep releases a fixed Pattern1 stream (maxTxns Poisson
// arrivals at rate lambda) against the EPOCH scheduler at each window
// size and reports makespan, latency and batching statistics per
// window. Every cell runs the same seed, so rows differ only in the
// window; each window is one variant of a one-scheduler, one-λ grid
// (runGrid), so output is byte-identical at every parallelism level.
func RunEpochSweep(o Options, windows []event.Time, lambda float64, maxTxns int, opts ...Option) (*EpochSweepResult, error) {
	o = o.withDefaults()
	if len(windows) == 0 {
		windows = DefaultEpochWindows()
	}
	if lambda <= 0 {
		lambda = 0.8
	}
	if maxTxns <= 0 {
		maxTxns = 300
	}
	for _, w := range windows {
		if w < 0 {
			return nil, fmt.Errorf("experiments: negative batch window %v", w)
		}
	}
	// One cell per window: one λ, one seed.
	o.Lambdas, o.Replications = []float64{lambda}, 1
	sets, err := runGrid(o, variantsOf(windows, func(c *sim.Config, w event.Time) {
		c.Workload = workload.Experiment1(c.Machine.NumParts)
		c.MaxTxns = maxTxns
		c.BatchWindow = w
	}), factoriesByName("EPOCH"), opts)
	if err != nil {
		return nil, err
	}
	res := &EpochSweepResult{
		Scheduler: sets[0][0].Label,
		Lambda:    lambda,
		MaxTxns:   maxTxns,
		Seed:      o.Seed,
		Note: "window 0 is the per-arrival baseline (identical to CHAIN); " +
			"all rows share one seed, so they schedule the same arrival stream",
	}
	for i, set := range sets {
		r := set[0].Points[0].Result
		res.Rows = append(res.Rows, EpochSweepRow{
			Window:      windows[i],
			Makespan:    r.LastCompletion,
			MeanRT:      r.MeanRT,
			P99RT:       r.P99RT,
			Throughput:  r.Throughput,
			Completed:   r.Completed,
			Epochs:      r.Epochs,
			MaxBatch:    r.MaxBatch,
			MeanBatch:   r.MeanBatch,
			MaxClusters: r.MaxClusters,
		})
	}
	return res, nil
}

// Render formats the sweep as a fixed-width table.
func (r *EpochSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Epoch batch-window sweep: %d Pattern1 arrivals at λ = %g TPS, scheduler %s\n",
		r.MaxTxns, r.Lambda, r.Scheduler)
	fmt.Fprintf(&b, "  %-12s %13s %12s %11s %8s %8s %10s %10s %9s\n",
		"window (ms)", "makespan (s)", "mean RT (s)", "p99 RT (s)", "TPS",
		"epochs", "max batch", "mean batch", "clusters")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%d", row.Window)
		if row.Window == 0 {
			label = "0 (CHAIN)"
		}
		fmt.Fprintf(&b, "  %-12s %13.1f %12.2f %11.2f %8.3f %8d %10d %10.2f %9d\n",
			label, float64(row.Makespan)/1000, row.MeanRT, row.P99RT,
			row.Throughput, row.Epochs, row.MaxBatch, row.MeanBatch, row.MaxClusters)
	}
	return b.String()
}

// CSV renders the sweep as a flat CSV table.
func (r *EpochSweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("window_ms,makespan_ms,mean_rt_s,p99_rt_s,throughput_tps,completed,epochs,max_batch,mean_batch,max_clusters\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%d,%g,%g,%g,%d,%d,%d,%g,%d\n",
			row.Window, row.Makespan, row.MeanRT, row.P99RT, row.Throughput,
			row.Completed, row.Epochs, row.MaxBatch, row.MeanBatch, row.MaxClusters)
	}
	return b.String()
}

// JSON renders the sweep as a document (batbench -epoch -json): the
// sweep parameters plus one row per window. The document is a pure
// function of the sweep result — no timestamps or host data — so
// regenerating on an unchanged tree is byte-identical.
func (r *EpochSweepResult) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

package experiments

import (
	"fmt"
	"strings"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/sim"
	"batsched/internal/workload"
)

// This file holds experiments beyond the paper's figures: ablations of
// the design choices DESIGN.md calls out, and the extensions the paper
// itself suggests (a K sweep for K-WTPG, §4.3's declustered placement).

// AblationResult is a generic (variant × scheduler) table of throughput
// at the RT target.
type AblationResult struct {
	Title    string
	Variants []string
	RTTarget float64
	// TPS[label][i] is the throughput of scheduler label at Variants[i].
	TPS map[string][]float64
	// Extra[label][i] is an optional secondary metric (named by ExtraName).
	Extra     map[string][]float64
	ExtraName string
}

// Render formats the ablation as a fixed-width table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (TPS at RT = %.0f s", r.Title, r.RTTarget)
	if r.ExtraName != "" {
		fmt.Fprintf(&b, "; bracketed: %s", r.ExtraName)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  %-12s", "scheduler")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %16s", v)
	}
	b.WriteString("\n")
	for _, l := range sortedLabels(r.TPS) {
		fmt.Fprintf(&b, "  %-12s", l)
		for i := range r.Variants {
			cell := fmt.Sprintf("%.3f", r.TPS[l][i])
			if r.Extra != nil && r.Extra[l] != nil {
				cell += fmt.Sprintf(" [%.2f]", r.Extra[l][i])
			}
			fmt.Fprintf(&b, " %16s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runAblation runs one ablation grid and tabulates each scheduler's
// throughput at the RT target per variant; extra, if set, is the
// bracketed metric, read at the highest stable load of each sweep.
func runAblation(o Options, res *AblationResult, variants []func(*sim.Config),
	factories []sched.Factory, extra func(*sim.Result) float64, opts []Option) (*AblationResult, error) {

	sets, err := runGrid(o, variants, factories, opts)
	if err != nil {
		return nil, err
	}
	res.RTTarget = o.RTTargetSeconds
	res.TPS = byLabel(sets, tpsAt(o.RTTargetSeconds))
	if extra != nil {
		res.Extra = byLabel(sets, func(s Sweep) float64 { return stableAt(s, o.RTTargetSeconds, extra) })
	}
	return res, nil
}

// stableAt returns f at the last sweep point whose mean response time
// is below the target (the highest stable load), or 0 if there is none.
func stableAt(s Sweep, rtTarget float64, f func(*sim.Result) float64) float64 {
	v := 0.0
	for _, p := range s.Points {
		if p.Result.MeanRT < rtTarget {
			v = f(p.Result)
		}
	}
	return v
}

// RunKSweep extends the paper: it sweeps the K-conflict bound of K-WTPG
// (the paper evaluates only K = 2) on the Experiment 2 hot-set workload,
// where the admission constraint binds hardest. Each K is one scheduler
// of a single variant.
func RunKSweep(o Options, ks []int, opts ...Option) (*AblationResult, error) {
	o = o.withDefaults()
	if ks == nil {
		ks = []int{0, 1, 2, 4, 8}
	}
	res := &AblationResult{Title: "K sweep (K-WTPG admission bound), Pattern2 hot set = 8"}
	var factories []sched.Factory
	for _, k := range ks {
		res.Variants = append(res.Variants, fmt.Sprintf("K=%d", k))
		factories = append(factories, sched.MustLookup(fmt.Sprintf("K%d", k)))
	}
	sets, err := runGrid(o, []func(*sim.Config){func(c *sim.Config) {
		c.Machine.NumParts = hotSet8.NumParts()
		c.Workload = workload.Experiment2(hotSet8)
	}}, factories, opts)
	if err != nil {
		return nil, err
	}
	res.RTTarget = o.RTTargetSeconds
	tps := tpsAt(o.RTTargetSeconds)
	res.TPS = make(map[string][]float64)
	for _, s := range sets[0] {
		res.TPS["K-WTPG"] = append(res.TPS["K-WTPG"], tps(s))
	}
	return res, nil
}

// RunPlacementAblation compares the paper's mod placement against full
// declustering (§4.3): declustering buys intra-transaction parallelism —
// the paper's suggested route past the inter-transaction parallelism
// limit — at the (unmodelled) cost of message overhead for short
// transactions. The secondary metric is mean data-node utilization at
// the highest stable arrival rate.
func RunPlacementAblation(o Options, opts ...Option) (*AblationResult, error) {
	o = o.withDefaults()
	res := &AblationResult{
		Title:     "Placement ablation, Pattern1 (Experiment 1 workload)",
		Variants:  []string{"mod (paper)", "declustered"},
		ExtraName: "mean DN utilization at that throughput",
	}
	return runAblation(o, res, variantsOf([]bool{false, true}, func(c *sim.Config, declustered bool) {
		pattern1(c)
		c.Declustered = declustered
	}), factoriesByName("NODC", "ASL", "CHAIN", "K2", "C2PL"),
		func(r *sim.Result) float64 { return r.MeanNodeUtil }, opts)
}

// RunControlCostAblation scales the concurrency-control CPU costs
// (ddtime, chaintime, kwtpgtime) to verify the paper's claim that with
// ObjTime = 1 s the control overhead is overestimated yet harmless.
func RunControlCostAblation(o Options, multipliers []int, opts ...Option) (*AblationResult, error) {
	o = o.withDefaults()
	if multipliers == nil {
		multipliers = []int{1, 10, 100}
	}
	res := &AblationResult{Title: "Control-cost ablation (ddtime/chaintime/kwtpgtime scaled), Pattern1"}
	for _, m := range multipliers {
		res.Variants = append(res.Variants, fmt.Sprintf("x%d", m))
	}
	return runAblation(o, res, variantsOf(multipliers, func(c *sim.Config, m int) {
		pattern1(c)
		c.Machine.Control.DDTime *= event.Time(m)
		c.Machine.Control.ChainTime *= event.Time(m)
		c.Machine.Control.KWTPGTime *= event.Time(m)
	}), factoriesByName("CHAIN", "K2", "C2PL"), nil, opts)
}

// RunKeepTimeAblation varies §3.4's control-saving period: 0 disables
// caching entirely (recompute W / E on every request), larger values
// reuse stale estimates longer. The secondary metric is control-node
// utilization at the highest stable load.
func RunKeepTimeAblation(o Options, keeptimes []event.Time, opts ...Option) (*AblationResult, error) {
	o = o.withDefaults()
	if keeptimes == nil {
		keeptimes = []event.Time{0, 1000, 5000, 60000}
	}
	res := &AblationResult{
		Title:     "Control-saving (keeptime) ablation, Pattern1",
		ExtraName: "CN utilization at that throughput",
	}
	for _, kt := range keeptimes {
		res.Variants = append(res.Variants, kt.String())
	}
	return runAblation(o, res, variantsOf(keeptimes, func(c *sim.Config, kt event.Time) {
		pattern1(c)
		c.Machine.Control.KeepTime = kt
	}), factoriesByName("CHAIN", "K2"), func(r *sim.Result) float64 { return r.CNUtilization }, opts)
}

// RunRetryDelayAblation varies the fixed resubmission delay of §3.2,
// which the paper leaves unspecified (DESIGN.md assumes 500 ms).
func RunRetryDelayAblation(o Options, delays []event.Time, opts ...Option) (*AblationResult, error) {
	o = o.withDefaults()
	if delays == nil {
		delays = []event.Time{100, 250, 500, 1000, 2000}
	}
	res := &AblationResult{Title: "Retry-delay ablation, Pattern1"}
	for _, d := range delays {
		res.Variants = append(res.Variants, d.String())
	}
	return runAblation(o, res, variantsOf(delays, func(c *sim.Config, d event.Time) {
		pattern1(c)
		c.Machine.RetryDelay = d
	}), factoriesByName("ASL", "CHAIN", "K2", "C2PL"), nil, opts)
}

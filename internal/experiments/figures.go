package experiments

import (
	"batsched/internal/core/sched"
	"batsched/internal/sim"
	"batsched/internal/workload"
)

// factoriesByName resolves scheduler names through the registry — the
// single place that constructs schedulers by name. Experiment scheduler
// line-ups are spelled as the names the paper (and the CLIs) use.
func factoriesByName(names ...string) []sched.Factory {
	out := make([]sched.Factory, len(names))
	for i, name := range names {
		out[i] = sched.MustLookup(name)
	}
	return out
}

// Experiment1Result carries the Experiment 1 sweep, which renders both
// Figure 6 (mean response time vs. λ) and Figure 7 (throughput vs. λ,
// with NODC's throughput as the useful-utilization reference).
type Experiment1Result struct {
	Sweeps   []Sweep
	RTTarget float64
}

// RunExperiment1 runs Experiment 1 (§4.2): Pattern1 over NumParts = 16
// partitions, schedulers NODC/ASL/CHAIN/K2/C2PL, arrival-rate sweep.
func RunExperiment1(o Options, opts ...Option) (*Experiment1Result, error) {
	o = o.withDefaults()
	sets, err := runGrid(o, []func(*sim.Config){pattern1},
		factoriesByName("NODC", "ASL", "CHAIN", "K2", "C2PL"), opts)
	if err != nil {
		return nil, err
	}
	return &Experiment1Result{Sweeps: sets[0], RTTarget: o.RTTargetSeconds}, nil
}

// Experiment2Result carries Figure 8: for each NumHots, each scheduler's
// throughput at the target response time.
type Experiment2Result struct {
	NumHots  []int
	RTTarget float64
	// TPS[label][i] is the throughput at NumHots[i].
	TPS map[string][]float64
	// Sweeps[i] holds the underlying sweeps at NumHots[i].
	Sweeps [][]Sweep
}

// experiment2Factories are the schedulers of Figures 8 and 9.
func experiment2Factories() []sched.Factory {
	return factoriesByName("ASL", "CHAIN", "K2", "C2PL")
}

// hotSet8 is the hot-set layout of Experiment 3 and the K sweep.
var hotSet8 = workload.HotSetLayout{NumReadOnly: 8, NumHots: 8}

// hotSet is the Experiment 2 variant: Pattern2 over 8 read-only
// partitions plus nh hot ones.
func hotSet(c *sim.Config, nh int) {
	layout := workload.HotSetLayout{NumReadOnly: 8, NumHots: nh}
	c.Machine.NumParts = layout.NumParts()
	c.Workload = workload.Experiment2(layout)
}

// RunExperiment2 runs Experiment 2 (§4.3): Pattern2 over 8 read-only
// partitions plus a hot set of NumHots ∈ {4, 8, 16, 32} partitions;
// reported is each scheduler's throughput at RT = 70 s.
func RunExperiment2(o Options, opts ...Option) (*Experiment2Result, error) {
	o = o.withDefaults()
	hots := []int{4, 8, 16, 32}
	sets, err := runGrid(o, variantsOf(hots, hotSet), experiment2Factories(), opts)
	if err != nil {
		return nil, err
	}
	return &Experiment2Result{NumHots: hots, RTTarget: o.RTTargetSeconds,
		TPS: byLabel(sets, tpsAt(o.RTTargetSeconds)), Sweeps: sets}, nil
}

// Experiment3Result carries Figure 9: the Pattern3 response-time sweep at
// NumHots = 8.
type Experiment3Result struct {
	Sweeps   []Sweep
	RTTarget float64
}

// RunExperiment3 runs Experiment 3 (§4.3): Pattern3 (longer blocking
// time) over a hot set of 8 partitions.
func RunExperiment3(o Options, opts ...Option) (*Experiment3Result, error) {
	o = o.withDefaults()
	sets, err := runGrid(o, []func(*sim.Config){func(c *sim.Config) {
		c.Machine.NumParts = hotSet8.NumParts()
		c.Workload = workload.Experiment3(hotSet8)
	}}, experiment2Factories(), opts)
	if err != nil {
		return nil, err
	}
	return &Experiment3Result{Sweeps: sets[0], RTTarget: o.RTTargetSeconds}, nil
}

// Experiment4Result carries Figure 10: throughput at the target RT as a
// function of the declaration error σ, for CHAIN, K2, C2PL and the
// CHAIN-C2PL / K2-C2PL lower bounds.
type Experiment4Result struct {
	Sigmas   []float64
	RTTarget float64
	// TPS[label][i] is the throughput at Sigmas[i].
	TPS map[string][]float64
	// Sweeps[i] holds the underlying sweeps at Sigmas[i].
	Sweeps [][]Sweep
}

// RunExperiment4 runs Experiment 4 (§4.4): Pattern1 with erroneous
// declared I/O demands, C = C0(1+x), x ~ N(0, σ²). The hybrids and C2PL
// ignore declared demands, so their results are flat in σ; the paper
// plots them as reference lines.
func RunExperiment4(o Options, sigmas []float64, opts ...Option) (*Experiment4Result, error) {
	o = o.withDefaults()
	if sigmas == nil {
		sigmas = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	sets, err := runGrid(o, variantsOf(sigmas, func(c *sim.Config, sig float64) {
		pattern1(c)
		c.Workload = workload.WithDeclarationError(c.Workload, sig)
	}), factoriesByName("CHAIN", "K2", "C2PL", "CHAIN-C2PL", "K2-C2PL"), opts)
	if err != nil {
		return nil, err
	}
	return &Experiment4Result{Sigmas: sigmas, RTTarget: o.RTTargetSeconds,
		TPS: byLabel(sets, tpsAt(o.RTTargetSeconds)), Sweeps: sets}, nil
}

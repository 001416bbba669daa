// Package batsched is a library for scheduling Bulk Access Transactions
// (BATs) on shared-nothing parallel database machines, reproducing
// Ohmori, Kitsuregawa and Tanaka, "Concurrency Control of Bulk Access
// Transactions on Shared Nothing Parallel Database Machines" (ICDE 1990).
//
// A BAT reads and updates whole file partitions; scheduling many of them
// concurrently suffers from extreme data contention (partition-level
// locks, chains of blocking) and resource contention (bulk operations
// saturate a node). The paper's answer — and this library's core — is the
// Weighted Transaction Precedence Graph (WTPG): conflicting transactions
// are connected by weighted candidate precedence edges whose weights are
// remaining I/O demands, so the critical path from the virtual initial
// transaction T0 to the virtual final transaction Tf estimates the
// earliest possible completion time of any serialization order. Two
// schedulers exploit it:
//
//   - CHAIN (Chain-WTPG) computes the globally optimal serialization
//     order W on chain-form WTPGs in O(N²) and grants only W-consistent
//     lock requests.
//   - K-WTPG grants a request q only when its locally estimated
//     contention E(q) is minimal among the conflicting declarations,
//     under a K-conflict admission bound.
//
// The package also provides the paper's baselines (ASL, C2PL, NODC and
// the CHAIN-C2PL / K-C2PL hybrids), a deterministic discrete-event
// simulator of the machine model, the four workloads of the evaluation
// section, and harnesses that regenerate every figure of the paper.
//
// # Quick start
//
//	t1 := batsched.NewTransaction(1, []batsched.Step{
//		{Mode: batsched.Read, Part: 0, Cost: 1},
//		{Mode: batsched.Write, Part: 0, Cost: 1},
//	})
//	... build a WTPG, run a scheduler, or simulate a whole machine; see
//	the examples/ directory.
package batsched

import (
	"fmt"

	"batsched/internal/core/chainopt"
	"batsched/internal/core/estimate"
	"batsched/internal/core/sched"
	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/experiments"
	"batsched/internal/live"
	"batsched/internal/machine"
	"batsched/internal/obs"
	"batsched/internal/planner"
	"batsched/internal/sim"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// Transaction model (§2.2 of the paper).
type (
	// Transaction is a declared sequence of read/write steps.
	Transaction = txn.T
	// Step is one read or write of a partition with an I/O demand in
	// objects.
	Step = txn.Step
	// TxnID identifies a transaction.
	TxnID = txn.ID
	// PartitionID identifies a partition locking-granule.
	PartitionID = txn.PartitionID
	// Pattern is a reusable transaction template over symbolic partition
	// variables, in the paper's "r(F1:1) -> w(F2:0.2)" notation.
	Pattern = txn.Pattern
)

// Access modes.
const (
	Read  = txn.Read
	Write = txn.Write
)

// NewTransaction builds a transaction whose declared demands equal its
// true demands.
func NewTransaction(id TxnID, steps []Step) *Transaction { return txn.New(id, steps) }

// ParsePattern parses the paper's arrow notation, e.g.
// "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)".
func ParsePattern(name, src string) (*Pattern, error) { return txn.ParsePattern(name, src) }

// WTPG core (§3 of the paper).
type (
	// WTPG is the Weighted Transaction Precedence Graph.
	WTPG = wtpg.Graph
	// Chain is a maximal path of the conflict graph.
	Chain = wtpg.Chain
	// ChainProblem is the chain-optimization input (w(T0→n[k]) and the
	// per-direction edge weights).
	ChainProblem = chainopt.Chain
	// ChainSolution is an optimal orientation and its critical path.
	ChainSolution = chainopt.Solution
)

// Down orients a chain edge from the earlier to the later chain node.
const Down = chainopt.Down

// NewWTPG returns an empty graph.
func NewWTPG() *WTPG { return wtpg.New() }

// FormatWTPGPath renders a critical path as "T0 -> T1 -> Tf (length 6)".
func FormatWTPGPath(path []TxnID, length float64) string {
	return wtpg.FormatPath(path, length)
}

// ConflictWeights computes the §3.1 conflicting-edge weights between two
// declared transactions.
func ConflictWeights(a, b *Transaction) (wab, wba float64, ok bool) {
	return wtpg.ConflictWeights(a, b)
}

// SolveChain computes the full serialization order with the shortest
// critical path on a chain-form WTPG in O(N²), honouring already-resolved
// edges (the production algorithm behind the CHAIN scheduler).
func SolveChain(c ChainProblem) (ChainSolution, error) { return chainopt.Solve(c) }

// SolveChainPaper runs the appendix's literal Lcomp/Rcomp algorithm
// (free chains only).
func SolveChainPaper(c ChainProblem) (ChainSolution, error) { return chainopt.SolvePaper(c) }

// SolveChainExhaustive enumerates all orientations — the test oracle.
func SolveChainExhaustive(c ChainProblem) (ChainSolution, error) {
	return chainopt.SolveExhaustive(c)
}

// EstimateE evaluates the K-WTPG scheduler's E(q) on a graph: the
// contention of the present schedule if transaction t's request — which
// would order t before every target — were granted now (§3.3).
func EstimateE(g *WTPG, t TxnID, targets []TxnID) float64 {
	return estimate.E(g, t, targets)
}

// Schedulers (§3 and §4.1 of the paper).
type (
	// SchedulerFactory builds scheduler instances for simulation runs.
	SchedulerFactory = sched.Factory
	// ControlCosts carries ddtime/chaintime/kwtpgtime and the §3.4
	// control-saving period.
	ControlCosts = sched.Costs
)

// Granted is the scheduler decision that lets a request proceed.
const Granted = sched.Granted

// Scheduler factories, named as in the paper. Each is a thin wrapper
// over the registry — the one place that constructs schedulers by
// name — so these constructors and the CLIs' -sched flags always agree
// (TestFacadeCoversRegistry).
func NODC() SchedulerFactory       { return sched.MustLookup("NODC") }
func ASL() SchedulerFactory        { return sched.MustLookup("ASL") }
func C2PL() SchedulerFactory       { return sched.MustLookup("C2PL") }
func CHAIN() SchedulerFactory      { return sched.MustLookup("CHAIN") }
func KWTPG(k int) SchedulerFactory { return sched.MustLookup(fmt.Sprintf("K%d", k)) }
func ChainC2PL() SchedulerFactory  { return sched.MustLookup("CHAIN-C2PL") }
func KConflictC2PL(k int) SchedulerFactory {
	return sched.MustLookup(fmt.Sprintf("K%d-C2PL", k))
}

// Machine and simulation (§4.1 of the paper).
type (
	// Time is a simulation timestamp in clocks (1 clock = 1 ms).
	Time = event.Time
	// MachineConfig is the Table 1 machine configuration.
	MachineConfig = machine.Config
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult reports one run's metrics.
	SimResult = sim.Result
	// Workload generates arriving transactions.
	Workload = workload.Generator
	// PatternWorkload instantiates a pattern with random bindings.
	PatternWorkload = workload.PatternGenerator
	// HotSetLayout describes the Experiment 2/3 database layout.
	HotSetLayout = workload.HotSetLayout
)

// DefaultMachine returns the Table 1 defaults (see DESIGN.md §4).
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// Simulate executes one deterministic simulation run; options attach
// observability without touching the Config struct:
//
//	res, err := batsched.Simulate(cfg, batsched.WithSimTrace(sink))
func Simulate(cfg SimConfig, opts ...SimOption) (*SimResult, error) { return sim.Run(cfg, opts...) }

// SimOption configures a simulation run (see WithSimTrace).
type SimOption = sim.Option

// WithSimTrace attaches a structured observer to a simulation run: the
// simulator emits timeline events and wraps its scheduler so decisions,
// WTPG edge resolutions and critical-path changes are reported too.
func WithSimTrace(o Observer) SimOption { return sim.WithTrace(o) }

// Observability (docs/OBSERVABILITY.md): structured trace events,
// counters and histograms over every layer — schedulers, the simulator,
// the live controller and the experiment harness.
type (
	// TraceEvent is one structured observation.
	TraceEvent = obs.Event
	// Observer consumes trace events.
	Observer = obs.Observer
	// RingSink keeps the last N events in memory.
	RingSink = obs.Ring
	// JSONLSink streams events as JSON Lines.
	JSONLSink = obs.JSONL
	// Metrics aggregates events into per-scheduler counters/histograms.
	Metrics = obs.Metrics
)

// TraceCommit is the kind of the event a finished transaction emits.
const TraceCommit = obs.KindCommit

// Sink constructors.
func NewRingSink(capacity int) *RingSink              { return obs.NewRing(capacity) }
func CreateJSONLSink(path string) (*JSONLSink, error) { return obs.CreateJSONL(path) }
func NewMetrics() *Metrics                            { return obs.NewMetrics() }

// MultiObserver fans events out to several observers (nils skipped).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// The paper's workloads.
func WorkloadExperiment1(numParts int) Workload { return workload.Experiment1(numParts) }
func WorkloadExperiment2(l HotSetLayout) Workload {
	return workload.Experiment2(l)
}

// WithDeclarationError wraps a workload with Experiment 4's erroneous
// I/O-demand model (declared = true × (1 + x), x ~ N(0, σ²), clamped ≥0).
func WithDeclarationError(w Workload, sigma float64) Workload {
	return workload.WithDeclarationError(w, sigma)
}

// Experiment harness (§4 of the paper).
type (
	// ExperimentOptions configures a figure regeneration.
	ExperimentOptions = experiments.Options
	// ExperimentOption attaches observability to an experiment run (see
	// WithExperimentTrace).
	ExperimentOption = experiments.Option
	// Experiment results, one per paper experiment.
	Experiment1Result = experiments.Experiment1Result
	Experiment2Result = experiments.Experiment2Result
	Experiment3Result = experiments.Experiment3Result
	Experiment4Result = experiments.Experiment4Result
)

// Live execution: the schedulers as an in-process lock manager for real
// goroutines (package sim *models* the machine; Controller schedules
// actual work).
type (
	// Controller is a live lock manager driven by one of the schedulers.
	Controller = live.Controller
	// ControllerOption configures a Controller at construction.
	ControllerOption = live.Option
	// Progress reports completed objects from inside a running step.
	Progress = live.Progress
)

// NewController builds a live controller around a scheduler:
//
//	ctl := batsched.NewController(batsched.KWTPG(2),
//		batsched.ControlCosts{KeepTime: 100},
//		batsched.WithControllerObserver(sink))
func NewController(f SchedulerFactory, costs ControlCosts, opts ...ControllerOption) *Controller {
	return live.New(f, costs, opts...)
}

// WithControllerObserver attaches a structured observer to a controller:
// timeline events plus every scheduler decision, tagged by shard.
func WithControllerObserver(o Observer) ControllerOption {
	return live.WithObserver(o)
}

// Batch planning (the off-line window's makespan problem, §1).
type (
	// PlanStrategy orders and times the release of a fixed batch.
	PlanStrategy = planner.Strategy
	// PlanEvaluation is one (strategy, scheduler) outcome.
	PlanEvaluation = planner.Evaluation
	// Flood releases the whole batch at t = 0.
	Flood = planner.Flood
	// Stagger releases one transaction per fixed gap.
	Stagger = planner.Stagger
	// ByDemand floods in declared-demand order (LPT-style).
	ByDemand = planner.ByDemand
)

// EvaluatePlan simulates one release plan of a fixed batch and reports
// its makespan.
func EvaluatePlan(batch []*Transaction, mc MachineConfig, f SchedulerFactory, s PlanStrategy) (*PlanEvaluation, error) {
	return planner.Evaluate(batch, mc, f, s)
}

// ComparePlans evaluates every (strategy × scheduler) combination,
// sorted by makespan.
func ComparePlans(batch []*Transaction, mc MachineConfig, factories []SchedulerFactory, strategies []PlanStrategy) ([]*PlanEvaluation, error) {
	return planner.Compare(batch, mc, factories, strategies)
}

// RandomBatch draws a reproducible fixed batch from a workload.
func RandomBatch(gen Workload, n int, seed int64) []*Transaction {
	return planner.RandomBatch(gen, n, seed)
}

// RenderPlanTable formats plan evaluations as a report.
func RenderPlanTable(evals []*PlanEvaluation) string { return planner.RenderTable(evals) }

// Extensions beyond the paper's figures.
type (
	// AblationResult is a (variant × scheduler) throughput table.
	AblationResult = experiments.AblationResult
	// MixedResult reports the mixed short-transaction/BAT experiment.
	MixedResult = experiments.MixedResult
)

// Ablations of design choices and the paper's suggested extensions.
func RunKSweep(o ExperimentOptions, ks []int, opts ...ExperimentOption) (*AblationResult, error) {
	return experiments.RunKSweep(o, ks, opts...)
}
func RunPlacementAblation(o ExperimentOptions, opts ...ExperimentOption) (*AblationResult, error) {
	return experiments.RunPlacementAblation(o, opts...)
}
func RunMixedWorkload(o ExperimentOptions, lambda, shortShare float64, opts ...ExperimentOption) (*MixedResult, error) {
	return experiments.RunMixedWorkload(o, lambda, shortShare, opts...)
}

// The paper's experiments; each result renders its figure(s) as text.
func RunExperiment1(o ExperimentOptions, opts ...ExperimentOption) (*Experiment1Result, error) {
	return experiments.RunExperiment1(o, opts...)
}
func RunExperiment2(o ExperimentOptions, opts ...ExperimentOption) (*Experiment2Result, error) {
	return experiments.RunExperiment2(o, opts...)
}
func RunExperiment3(o ExperimentOptions, opts ...ExperimentOption) (*Experiment3Result, error) {
	return experiments.RunExperiment3(o, opts...)
}
func RunExperiment4(o ExperimentOptions, sigmas []float64, opts ...ExperimentOption) (*Experiment4Result, error) {
	return experiments.RunExperiment4(o, sigmas, opts...)
}

// WithExperimentTrace streams every simulation's structured events to o
// (shared across the parallel grid; each run buffers privately and the
// harness replays buffers into o in deterministic grid order, so the
// stream is identical at every parallelism level).
func WithExperimentTrace(o Observer) ExperimentOption { return experiments.WithTrace(o) }

package batsched_test

import (
	"math"
	"strings"
	"testing"

	"batsched"
	"batsched/internal/core/sched"
)

// TestFacadeFigure1Workflow drives the public API through the paper's
// Figure 1/2 worked example: build transactions, compute conflict
// weights, assemble a WTPG, solve the chain optimization, and check the
// E(q) estimates.
func TestFacadeFigure1Workflow(t *testing.T) {
	t1 := batsched.NewTransaction(1, []batsched.Step{
		{Mode: batsched.Read, Part: 0, Cost: 1},
		{Mode: batsched.Read, Part: 1, Cost: 3},
		{Mode: batsched.Write, Part: 0, Cost: 1},
	})
	t2 := batsched.NewTransaction(2, []batsched.Step{
		{Mode: batsched.Read, Part: 2, Cost: 1},
		{Mode: batsched.Write, Part: 0, Cost: 1},
	})
	t3 := batsched.NewTransaction(3, []batsched.Step{
		{Mode: batsched.Write, Part: 2, Cost: 1},
		{Mode: batsched.Read, Part: 3, Cost: 3},
	})

	g := batsched.NewWTPG()
	for _, tx := range []*batsched.Transaction{t1, t2, t3} {
		if err := g.AddNode(tx.ID, tx.DeclaredTotal()); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]*batsched.Transaction{{t1, t2}, {t2, t3}} {
		wab, wba, ok := batsched.ConflictWeights(pair[0], pair[1])
		if !ok {
			t.Fatalf("%v vs %v: no conflict", pair[0].ID, pair[1].ID)
		}
		if err := g.AddConflict(pair[0].ID, pair[1].ID, wab, wba); err != nil {
			t.Fatal(err)
		}
	}
	chains, ok := g.Chains()
	if !ok || len(chains) != 1 || len(chains[0]) != 3 {
		t.Fatalf("chains = %v, %v", chains, ok)
	}

	// Build and solve the chain problem: optimal W = {T1→T2, T3→T2},
	// critical path 6 (Example 3.2).
	prob := batsched.ChainProblem{
		R:    []float64{5, 2, 4},
		Down: []float64{1, 4},
		Up:   []float64{5, 2},
	}
	sol, err := batsched.SolveChain(prob)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Length != 6 {
		t.Errorf("optimal critical path = %g, want 6", sol.Length)
	}
	paper, err := batsched.SolveChainPaper(prob)
	if err != nil {
		t.Fatal(err)
	}
	if paper.Length != sol.Length {
		t.Errorf("appendix algorithm disagrees: %g vs %g", paper.Length, sol.Length)
	}
	oracle, err := batsched.SolveChainExhaustive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Length != sol.Length {
		t.Errorf("oracle disagrees: %g vs %g", oracle.Length, sol.Length)
	}

	// E(q) through the facade.
	if e := batsched.EstimateE(g, 1, []batsched.TxnID{2}); math.IsInf(e, 1) {
		t.Error("E(q) infinite on acyclic grant")
	}
}

func TestFacadePatternParse(t *testing.T) {
	p, err := batsched.ParsePattern("Pattern1", "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := p.Bind(9, map[string]batsched.PartitionID{"F1": 0, "F2": 1})
	if err != nil {
		t.Fatal(err)
	}
	if tx.DeclaredTotal() != 7.2 {
		t.Errorf("total = %g, want 7.2", tx.DeclaredTotal())
	}
}

// TestFacadeCoversRegistry holds batsched.go to its word that the
// constructors and the CLIs' -sched flags agree: every name the registry
// lists — exact names and one member of each family — has a facade
// constructor building the same scheduler.
func TestFacadeCoversRegistry(t *testing.T) {
	facade := map[string]bool{}
	for _, f := range []batsched.SchedulerFactory{
		batsched.NODC(), batsched.ASL(), batsched.C2PL(), batsched.CHAIN(),
		batsched.KWTPG(2), batsched.ChainC2PL(), batsched.KConflictC2PL(2),
	} {
		facade[f.Label] = true
	}
	for _, name := range sched.Names() {
		name = strings.ReplaceAll(name, "<k>", "2")
		if !facade[sched.MustLookup(name).Label] {
			t.Errorf("registry name %s has no facade constructor", name)
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	for _, f := range []batsched.SchedulerFactory{
		batsched.CHAIN(), batsched.KWTPG(2), batsched.ASL(), batsched.C2PL(),
		batsched.ChainC2PL(), batsched.KConflictC2PL(2),
	} {
		cfg := batsched.SimConfig{
			Machine:              batsched.DefaultMachine(),
			Scheduler:            f,
			Workload:             batsched.WorkloadExperiment1(16),
			ArrivalRate:          0.4,
			Horizon:              120_000,
			Seed:                 3,
			CheckSerializability: true,
		}
		res, err := batsched.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		if res.Completed == 0 {
			t.Errorf("%s: no completions", f.Label)
		}
	}
	// NODC needs the check disabled.
	cfg := batsched.SimConfig{
		Machine:     batsched.DefaultMachine(),
		Scheduler:   batsched.NODC(),
		Workload:    batsched.WorkloadExperiment1(16),
		ArrivalRate: 0.4,
		Horizon:     120_000,
		Seed:        3,
	}
	if _, err := batsched.Simulate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHotSetAndErrorWorkloads(t *testing.T) {
	layout := batsched.HotSetLayout{NumReadOnly: 8, NumHots: 4}
	mc := batsched.DefaultMachine()
	mc.NumParts = layout.NumParts()
	cfg := batsched.SimConfig{
		Machine:              mc,
		Scheduler:            batsched.KWTPG(2),
		Workload:             batsched.WithDeclarationError(batsched.WorkloadExperiment2(layout), 0.5),
		ArrivalRate:          0.4,
		Horizon:              120_000,
		Seed:                 4,
		CheckSerializability: true,
	}
	res, err := batsched.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("no completions under error model")
	}
	if !strings.Contains(res.Workload, "sigma=0.5") {
		t.Errorf("workload name = %q", res.Workload)
	}
}

func TestFacadeExperimentHarness(t *testing.T) {
	o := batsched.ExperimentOptions{
		Horizon: 100_000,
		Lambdas: []float64{0.3},
		Seed:    5,
	}
	r, err := batsched.RunExperiment1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweeps) != 5 {
		t.Fatalf("sweeps = %d", len(r.Sweeps))
	}
	if out := r.RenderFigure6(); !strings.Contains(out, "Figure 6") {
		t.Error("figure rendering broken")
	}
}

func TestFacadePlanner(t *testing.T) {
	batch := batsched.RandomBatch(batsched.WorkloadExperiment1(16), 8, 3)
	if len(batch) != 8 {
		t.Fatalf("batch = %d", len(batch))
	}
	ev, err := batsched.EvaluatePlan(batch, batsched.DefaultMachine(),
		batsched.KWTPG(2), batsched.Flood{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Makespan <= 0 {
		t.Errorf("makespan = %v", ev.Makespan)
	}
	evals, err := batsched.ComparePlans(batch, batsched.DefaultMachine(),
		[]batsched.SchedulerFactory{batsched.C2PL()},
		[]batsched.PlanStrategy{batsched.Flood{}, batsched.Stagger{Gap: 1000}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("evals = %d", len(evals))
	}
	if out := batsched.RenderPlanTable(evals); !strings.Contains(out, "makespan") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFacadeExtensions(t *testing.T) {
	o := batsched.ExperimentOptions{Horizon: 80_000, Lambdas: []float64{0.3}, Seed: 9}
	ks, err := batsched.RunKSweep(o, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Variants) != 1 {
		t.Fatalf("ksweep variants = %v", ks.Variants)
	}
	pl, err := batsched.RunPlacementAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Variants) != 2 {
		t.Fatalf("placement variants = %v", pl.Variants)
	}
	mix, err := batsched.RunMixedWorkload(o, 1.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.Rows) == 0 {
		t.Fatal("no mixed rows")
	}
	// Remaining figure harnesses through the facade.
	if _, err := batsched.RunExperiment2(o); err != nil {
		t.Fatal(err)
	}
	if _, err := batsched.RunExperiment3(o); err != nil {
		t.Fatal(err)
	}
	if _, err := batsched.RunExperiment4(o, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePathTrace(t *testing.T) {
	g := batsched.NewWTPG()
	if err := g.AddNode(1, 5); err != nil {
		t.Fatal(err)
	}
	path, length, err := g.CriticalPathTrace()
	if err != nil || length != 5 {
		t.Fatalf("trace = %v,%g,%v", path, length, err)
	}
	if got := batsched.FormatWTPGPath(path, length); got != "T0 -> T1 -> Tf (length 5)" {
		t.Errorf("FormatWTPGPath = %q", got)
	}
}

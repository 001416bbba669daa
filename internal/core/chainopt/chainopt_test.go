package chainopt

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// figure2Chain is the paper's Figure 2 chain T1–T2–T3:
// r = [5, 2, 4], w(T1→T2)=1, w(T2→T1)=5, w(T2→T3)=4, w(T3→T2)=2.
func figure2Chain() Chain {
	return Chain{
		R:    []float64{5, 2, 4},
		Down: []float64{1, 4},
		Up:   []float64{5, 2},
	}
}

func TestEvaluateFigure2(t *testing.T) {
	c := figure2Chain()
	// W = {T1→T2, T3→T2}: critical path 6 (Example 3.2).
	if got, err := Evaluate(c, []Orientation{Down, Up}); err != nil || got != 6 {
		t.Errorf("Evaluate(down,up) = %g,%v; want 6", got, err)
	}
	// W = {T1→T2→T3}: critical path 10.
	if got, err := Evaluate(c, []Orientation{Down, Down}); err != nil || got != 10 {
		t.Errorf("Evaluate(down,down) = %g,%v; want 10", got, err)
	}
	// W = {T2→T1, T2→T3}: paths max(r2+5, r1)=7 up-run; down-run max(2+4,4)=6 → 7.
	if got, err := Evaluate(c, []Orientation{Up, Down}); err != nil || got != 7 {
		t.Errorf("Evaluate(up,down) = %g,%v; want 7", got, err)
	}
	// W = {T3→T2→T1}: single up-run: max(r1, r2+5, r3+2+5) = 11.
	if got, err := Evaluate(c, []Orientation{Up, Up}); err != nil || got != 11 {
		t.Errorf("Evaluate(up,up) = %g,%v; want 11", got, err)
	}
}

func TestSolveFigure2(t *testing.T) {
	for name, solver := range map[string]func(Chain) (Solution, error){
		"Solve": Solve, "SolveExhaustive": SolveExhaustive, "SolvePaper": SolvePaper,
	} {
		sol, err := solver(figure2Chain())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Length != 6 {
			t.Errorf("%s length = %g, want 6", name, sol.Length)
		}
		if len(sol.Orient) != 2 || sol.Orient[0] != Down || sol.Orient[1] != Up {
			t.Errorf("%s orientation = %v, want [down up]", name, sol.Orient)
		}
	}
}

func TestSingleNode(t *testing.T) {
	c := Chain{R: []float64{7}, Down: nil, Up: nil}
	for name, solver := range map[string]func(Chain) (Solution, error){
		"Solve": Solve, "SolveExhaustive": SolveExhaustive, "SolvePaper": SolvePaper,
	} {
		sol, err := solver(c)
		if err != nil || sol.Length != 7 || len(sol.Orient) != 0 {
			t.Errorf("%s on single node = %+v, %v; want length 7", name, sol, err)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Chain{
		{},
		{R: []float64{1, 2}, Down: []float64{1}, Up: nil},
		{R: []float64{1, 2}, Down: []float64{-1}, Up: []float64{1}},
		{R: []float64{-1}},
		{R: []float64{1, 2}, Down: []float64{1}, Up: []float64{1}, Fixed: []Orientation{Down, Up}},
		{R: []float64{math.NaN()}},
	}
	for i, c := range bad {
		if _, err := Solve(c); err == nil {
			t.Errorf("case %d: Solve accepted invalid chain", i)
		}
	}
}

func TestEvaluateRejectsViolatedFixed(t *testing.T) {
	c := figure2Chain()
	c.Fixed = []Orientation{Up, Free}
	if _, err := Evaluate(c, []Orientation{Down, Up}); err == nil {
		t.Error("Evaluate accepted orientation violating fixed edge")
	}
	if _, err := Evaluate(c, []Orientation{Up, Free}); err == nil {
		t.Error("Evaluate accepted incomplete orientation")
	}
}

func TestSolveHonoursFixedEdges(t *testing.T) {
	c := figure2Chain()
	c.Fixed = []Orientation{Free, Down} // force T2→T3
	sol, err := Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Orient[1] != Down {
		t.Fatalf("fixed edge reoriented: %v", sol.Orient)
	}
	// Best with edge 1 down: [up down] gives 7, [down down] gives 10.
	if sol.Length != 7 {
		t.Errorf("length = %g, want 7", sol.Length)
	}
	ex, err := SolveExhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Length != sol.Length {
		t.Errorf("Solve %g != exhaustive %g", sol.Length, ex.Length)
	}
}

func TestSolvePaperRejectsFixed(t *testing.T) {
	c := figure2Chain()
	c.Fixed = []Orientation{Down, Free}
	if _, err := SolvePaper(c); err == nil {
		t.Error("SolvePaper accepted fixed edges")
	}
}

func randomChain(rng *rand.Rand, n int, withFixed bool) Chain {
	c := Chain{
		R:    make([]float64, n),
		Down: make([]float64, n-1),
		Up:   make([]float64, n-1),
	}
	for i := range c.R {
		c.R[i] = float64(rng.Intn(20))
	}
	for i := 0; i < n-1; i++ {
		c.Down[i] = float64(rng.Intn(20))
		c.Up[i] = float64(rng.Intn(20))
	}
	if withFixed {
		c.Fixed = make([]Orientation, n-1)
		for i := range c.Fixed {
			c.Fixed[i] = Orientation(rng.Intn(3)) // Free, Down or Up
		}
	}
	return c
}

// Property: Solve matches exhaustive search, its orientation is feasible,
// and Evaluate(orientation) reproduces the reported length.
func TestSolveMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		c := randomChain(rng, n, trial%2 == 0)
		want, err := SolveExhaustive(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length {
			t.Fatalf("trial %d: Solve %g != exhaustive %g\nchain %+v", trial, got.Length, want.Length, c)
		}
		if n > 1 {
			ev, err := Evaluate(c, got.Orient)
			if err != nil {
				t.Fatalf("trial %d: solution not feasible: %v", trial, err)
			}
			if ev != got.Length {
				t.Fatalf("trial %d: Evaluate %g != reported %g", trial, ev, got.Length)
			}
		}
	}
}

// Property: the appendix algorithm matches exhaustive search on free chains.
func TestSolvePaperMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		c := randomChain(rng, n, false)
		want, err := SolveExhaustive(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolvePaper(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length {
			t.Fatalf("trial %d: SolvePaper %g != exhaustive %g\nchain %+v", trial, got.Length, want.Length, c)
		}
		if n > 1 {
			ev, err := Evaluate(c, got.Orient)
			if err != nil {
				t.Fatalf("trial %d: paper solution not feasible: %v (orient %v)", trial, err, got.Orient)
			}
			if ev != got.Length {
				t.Fatalf("trial %d: paper orientation evaluates to %g, reported %g\nchain %+v orient %v",
					trial, ev, got.Length, c, got.Orient)
			}
		}
	}
}

// Property: the optimum is a lower bound on every feasible orientation and
// is monotone under relaxation (freeing a fixed edge can only improve it).
func TestOptimumLowerBoundAndRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		c := randomChain(rng, n, true)
		sol, err := Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		// Random feasible orientation.
		orient := make([]Orientation, n-1)
		for i := range orient {
			if f := c.fixedAt(i); f != Free {
				orient[i] = f
			} else if rng.Intn(2) == 0 {
				orient[i] = Down
			} else {
				orient[i] = Up
			}
		}
		ev, err := Evaluate(c, orient)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Length > ev {
			t.Fatalf("optimum %g exceeds feasible %g", sol.Length, ev)
		}
		relaxed := c
		relaxed.Fixed = nil
		rsol, err := Solve(relaxed)
		if err != nil {
			t.Fatal(err)
		}
		if rsol.Length > sol.Length {
			t.Fatalf("relaxed optimum %g worse than constrained %g", rsol.Length, sol.Length)
		}
	}
}

func BenchmarkSolve32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomChain(rng, 32, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSolve32 is BenchmarkSolve32 through one reused Solver:
// the kernel CHAIN's recomputes of W run, 0 allocs warm.
func BenchmarkSolverSolve32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomChain(rng, 32, false)
	var s Solver
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePaper32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomChain(rng, 32, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolvePaper(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolverReuseDifferential runs one Solver over a seeded sequence of
// chains that grow and shrink (so rows a longer chain left in the
// scratch sit past a shorter one's end), with fixed edges and with
// inputs that fail — in validation, and after the DP has run (an
// orientation value no direction satisfies). Every answer must equal the
// fresh-scratch Solve's, orientation for orientation, and for m ≤ 12 the
// exhaustive optimum; after an error the solver must go on agreeing.
func TestSolverReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var s Solver
	var invalid, infeasible int // inputs failed in validation, by the DP
	for trial := 0; trial < 3000; trial++ {
		// A sawtooth of lengths 1..24 with random jumps in between.
		n := 1 + trial%24
		if trial%3 == 0 {
			n = 1 + rng.Intn(24)
		}
		c := randomChain(rng, n, trial%2 == 0)
		failsIn := &invalid
		switch {
		case trial%17 == 0 && n > 1:
			c.Up = c.Up[:0] // wrong edge count
		case trial%13 == 0 && n > 1:
			c.Fixed = make([]Orientation, n-1)
			c.Fixed[rng.Intn(n-1)] = Up + 1 // no direction satisfies it
			failsIn = &infeasible
		}
		want, wantErr := Solve(c)
		got, err := s.Solve(c)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (n=%d): reused Solver err %v, Solve err %v", trial, n, err, wantErr)
		}
		if err != nil {
			*failsIn++
			continue
		}
		if got.Length != want.Length || !slices.Equal(got.Orient, want.Orient) {
			t.Fatalf("trial %d (n=%d): reused Solver %g %v, Solve %g %v\nchain %+v",
				trial, n, got.Length, got.Orient, want.Length, want.Orient, c)
		}
		if c.M() <= 12 {
			ex, err := SolveExhaustive(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Length != ex.Length {
				t.Fatalf("trial %d (n=%d): reused Solver %g, exhaustive %g", trial, n, got.Length, ex.Length)
			}
		}
	}
	if invalid == 0 || infeasible == 0 {
		t.Fatalf("%d invalid and %d infeasible inputs; the sequence must test recovery from both", invalid, infeasible)
	}
}

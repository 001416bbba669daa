// Quickstart: the paper's Figure 1/2 worked example, end to end.
//
// Builds the three transactions of Figure 1, assembles their Weighted
// Transaction Precedence Graph, compares serialization orders by critical
// path, solves for the optimal full SR-order W with the O(N²) chain
// algorithm, and shows the grant decision CHAIN makes in Example 3.3.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"batsched"
)

func main() {
	// Figure 1 (partitions: A=0, B=1, C=2, D=3):
	//   T1: r1(A:1) -> r1(B:3) -> w1(A:1)
	//   T2: r2(C:1) -> w2(A:1)
	//   T3: w3(C:1) -> r3(D:3)
	const (
		A batsched.PartitionID = iota
		B
		C
		D
	)
	t1 := batsched.NewTransaction(1, []batsched.Step{
		{Mode: batsched.Read, Part: A, Cost: 1},
		{Mode: batsched.Read, Part: B, Cost: 3},
		{Mode: batsched.Write, Part: A, Cost: 1},
	})
	t2 := batsched.NewTransaction(2, []batsched.Step{
		{Mode: batsched.Read, Part: C, Cost: 1},
		{Mode: batsched.Write, Part: A, Cost: 1},
	})
	t3 := batsched.NewTransaction(3, []batsched.Step{
		{Mode: batsched.Write, Part: C, Cost: 1},
		{Mode: batsched.Read, Part: D, Cost: 3},
	})
	fmt.Println("Transactions (Figure 1):")
	for _, tx := range []*batsched.Transaction{t1, t2, t3} {
		fmt.Printf("  %v   (declared total %g objects)\n", tx, tx.DeclaredTotal())
	}

	// Build the WTPG of Figure 2-(a): every transaction has just started.
	g := batsched.NewWTPG()
	txns := []*batsched.Transaction{t1, t2, t3}
	for _, tx := range txns {
		if err := g.AddNode(tx.ID, tx.DeclaredTotal()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nConflicting-edges and their weights (§3.1):")
	for i := 0; i < len(txns); i++ {
		for j := i + 1; j < len(txns); j++ {
			a, b := txns[i], txns[j]
			wab, wba, ok := batsched.ConflictWeights(a, b)
			if !ok {
				continue
			}
			if err := g.AddConflict(a.ID, b.ID, wab, wba); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  (%v,%v): w(%v->%v)=%g  w(%v->%v)=%g\n",
				a.ID, b.ID, a.ID, b.ID, wab, b.ID, a.ID, wba)
		}
	}

	// Compare two full SR-orders by critical path (Example 3.2).
	good := g.Clone()
	for _, r := range [][2]batsched.TxnID{{1, 2}, {3, 2}} {
		if err := good.Resolve(r[0], r[1]); err != nil {
			log.Fatal(err)
		}
	}
	cpGood, err := good.CriticalPath()
	if err != nil {
		log.Fatal(err)
	}
	bad := g.Clone()
	for _, r := range [][2]batsched.TxnID{{1, 2}, {2, 3}} {
		if err := bad.Resolve(r[0], r[1]); err != nil {
			log.Fatal(err)
		}
	}
	cpBad, err := bad.CriticalPath()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCritical paths of two serialization orders:\n")
	fmt.Printf("  W = {T1->T2, T3->T2}: %g  (no chain of blocking)\n", cpGood)
	fmt.Printf("  W = {T1->T2->T3}:     %g  (T1->T2->T3 blocking chain)\n", cpBad)

	// Solve for the optimum directly (the CHAIN scheduler's step 2).
	chains, ok := g.Chains()
	if !ok {
		log.Fatal("WTPG is not chain-form")
	}
	fmt.Printf("\nChain decomposition: %v\n", chains)
	var prob batsched.ChainProblem
	g.ChainInput(chains[0], &prob)
	sol, err := batsched.SolveChain(prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Optimal W has critical path %g with orientations %v\n", sol.Length, sol.Orient)
	paper, err := batsched.SolveChainPaper(prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Appendix Lcomp/Rcomp agrees: %g\n", paper.Length)

	// The CHAIN grant decision of Example 3.3: with W = {T1->T2, T3->T2},
	// granting T2's first step r2(C:1) would resolve (T2,T3) into T2->T3
	// — inconsistent with W, so CHAIN delays it.
	sch := batsched.CHAIN().New(batsched.DefaultMachine().Control)
	for _, tx := range txns {
		if out := sch.Admit(tx, 0); out.Decision != batsched.Granted {
			log.Fatalf("admit %v: %v", tx.ID, out.Decision)
		}
	}
	fmt.Println("\nCHAIN grant decisions (Example 3.3):")
	for _, req := range []struct {
		tx   *batsched.Transaction
		step int
		desc string
	}{
		{t2, 0, "r2(C:1)"},
		{t1, 0, "r1(A:1)"},
		{t3, 0, "w3(C:1)"},
	} {
		out := sch.Request(req.tx, req.step, 0)
		fmt.Printf("  %-8s -> %v\n", req.desc, out.Decision)
	}

	fmt.Println("\nGraphviz rendering of the WTPG (paste into dot):")
	fmt.Println(g.DOT("figure2a"))
}

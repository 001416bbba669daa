// Command wtpgviz analyzes a set of declared transactions: it builds
// their Weighted Transaction Precedence Graph, reports conflicts, chain
// decomposition and the optimal full SR-order W (when the graph is
// chain-form), evaluates E(q) for every opening request, and can emit the
// graph in Graphviz DOT format.
//
// Input is one transaction per line in the paper's notation, read from a
// file argument or stdin. Partition names are arbitrary identifiers:
//
//	T1: r(A:1) -> r(B:3) -> w(A:1)
//	T2: r(C:1) -> w(A:1)
//	T3: w(C:1) -> r(D:3)
//
// Examples:
//
//	wtpgviz txns.txt
//	wtpgviz -dot txns.txt | dot -Tpng > wtpg.png
//	echo "T1: w(A:2)
//	T2: r(A:1)" | wtpgviz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"batsched"
)

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of the analysis report")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	txns, err := parseTransactions(in)
	if err != nil {
		fail(err)
	}
	if len(txns) == 0 {
		fail(fmt.Errorf("no transactions in input"))
	}

	g := batsched.NewWTPG()
	for _, t := range txns {
		if err := g.AddNode(t.ID, t.DeclaredTotal()); err != nil {
			fail(err)
		}
	}
	for i := 0; i < len(txns); i++ {
		for j := i + 1; j < len(txns); j++ {
			wab, wba, ok := batsched.ConflictWeights(txns[i], txns[j])
			if !ok {
				continue
			}
			if err := g.AddConflict(txns[i].ID, txns[j].ID, wab, wba); err != nil {
				fail(err)
			}
		}
	}

	if *dot {
		fmt.Print(g.DOT("wtpg"))
		return
	}

	fmt.Println("Transactions:")
	for _, t := range txns {
		fmt.Printf("  %v  (declared total %g)\n", t, t.DeclaredTotal())
	}
	fmt.Println("\nConflicting-edges:")
	edges := g.Edges()
	if len(edges) == 0 {
		fmt.Println("  none")
	}
	for _, e := range edges {
		fmt.Printf("  (%v,%v): w(%v->%v)=%g  w(%v->%v)=%g\n",
			e.A, e.B, e.A, e.B, e.WAB, e.B, e.A, e.WBA)
	}

	chains, ok := g.Chains()
	if !ok {
		fmt.Println("\nThe conflict graph is NOT chain-form: the CHAIN scheduler")
		fmt.Println("would reject the last-admitted transaction; K-WTPG still applies.")
	} else {
		fmt.Printf("\nChain decomposition: %v\n", chains)
		fmt.Println("Optimal full SR-order W (shortest critical path per chain):")
		for _, ch := range chains {
			if len(ch) < 2 {
				fmt.Printf("  %v: isolated (critical path %g)\n", ch, g.W0(ch[0]))
				continue
			}
			var prob batsched.ChainProblem
			g.ChainInput(ch, &prob)
			sol, err := batsched.SolveChain(prob)
			if err != nil {
				fail(err)
			}
			var order []string
			for k := 0; k+1 < len(ch); k++ {
				if sol.Orient[k] == batsched.Down {
					order = append(order, fmt.Sprintf("%v->%v", ch[k], ch[k+1]))
				} else {
					order = append(order, fmt.Sprintf("%v->%v", ch[k+1], ch[k]))
				}
			}
			fmt.Printf("  %v: {%s}, critical path %g\n", ch, strings.Join(order, ", "), sol.Length)
		}
	}

	// Show the longest path of the current (unresolved) graph: only the
	// T0→Ti edges count until orders are fixed.
	if path, length, err := g.CriticalPathTrace(); err == nil {
		fmt.Printf("\nCurrent critical path (unresolved edges ignored): %s\n",
			batsched.FormatWTPGPath(path, length))
	}

	fmt.Println("\nE(q) for each transaction's opening request (lower grants first):")
	for _, t := range txns {
		if len(t.Steps) == 0 {
			continue
		}
		s := t.Steps[0]
		var targets []batsched.TxnID
		for _, u := range txns {
			if u.ID == t.ID {
				continue
			}
			for _, us := range u.Steps {
				if us.Conflicts(s) {
					targets = append(targets, u.ID)
					break
				}
			}
		}
		e := batsched.EstimateE(g, t.ID, targets)
		fmt.Printf("  %v %v: E = %g\n", t.ID, s, e)
	}
}

// parseTransactions reads the Figure-1 notation: "T<n>: step -> step".
// Partition names are assigned ids in first-appearance order.
func parseTransactions(r io.Reader) ([]*batsched.Transaction, error) {
	parts := map[string]batsched.PartitionID{}
	nextPart := batsched.PartitionID(0)
	var out []*batsched.Transaction
	seen := map[batsched.TxnID]bool{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("line %d: want \"T<n>: steps\", got %q", lineNo, line)
		}
		name := strings.TrimSpace(line[:colon])
		var id batsched.TxnID
		if strings.HasPrefix(name, "T") {
			n, err := strconv.Atoi(name[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad transaction name %q", lineNo, name)
			}
			id = batsched.TxnID(n)
		} else {
			return nil, fmt.Errorf("line %d: transaction name %q must look like T1", lineNo, name)
		}
		if seen[id] {
			return nil, fmt.Errorf("line %d: duplicate transaction %v", lineNo, id)
		}
		seen[id] = true
		pat, err := batsched.ParsePattern(name, line[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		binding := map[string]batsched.PartitionID{}
		for _, v := range pat.Vars() {
			if _, ok := parts[v]; !ok {
				parts[v] = nextPart
				nextPart++
			}
			binding[v] = parts[v]
		}
		t, err := pat.Bind(id, binding)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wtpgviz:", err)
	os.Exit(1)
}

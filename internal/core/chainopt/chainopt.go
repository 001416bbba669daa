// Package chainopt computes, for a chain-form WTPG, the full
// serialization order W whose resolved WTPG has the shortest critical
// path (paper §3.2 and appendix).
//
// A chain of N transactions n[0..N-1] (paper labels 1..N) is described by
//
//	R[k]     = w(T0→n[k])               (live remaining demand)
//	Down[k]  = w(n[k]→n[k+1])           (k = 0..N-2)
//	Up[k]    = w(n[k+1]→n[k])
//
// An orientation assigns each conflicting-edge Down (n[k] precedes
// n[k+1]) or Up (n[k+1] precedes n[k]). The critical path of an oriented
// chain decomposes over maximal same-direction runs: within a down-run a
// path enters from T0 at any node t and follows the run to its last node;
// ditto, mirrored, for up-runs. The general problem is NP-hard (the paper
// reduces job-shop scheduling to it), but on chains it is solvable in
// O(N²) — Solve below is an independent, direct dynamic program over run
// decompositions; SolvePaper implements the appendix's Lcomp/Rcomp
// recursion; SolveExhaustive enumerates all 2^(N-1) orientations as a
// test oracle.
//
// Unlike the appendix (which optimizes a fresh chain), Solve and
// SolveExhaustive accept pre-resolved edges via Fixed: the running CHAIN
// scheduler must extend the resolutions already enforced by earlier
// grants.
package chainopt

import (
	"fmt"
	"math"
	"slices"
)

// Orientation of one conflicting-edge of the chain.
type Orientation int8

const (
	// Free means the edge may be oriented either way (still unresolved).
	Free Orientation = iota
	// Down orients the edge (n[k], n[k+1]) as n[k] → n[k+1].
	Down
	// Up orients the edge (n[k], n[k+1]) as n[k+1] → n[k].
	Up
)

func (o Orientation) String() string {
	switch o {
	case Down:
		return "down"
	case Up:
		return "up"
	default:
		return "free"
	}
}

func opposite(o Orientation) Orientation {
	if o == Down {
		return Up
	}
	return Down
}

// Chain is the optimization input. Fixed may be nil (all edges free).
type Chain struct {
	R     []float64
	Down  []float64
	Up    []float64
	Fixed []Orientation
}

// N returns the number of transactions on the chain.
func (c Chain) N() int { return len(c.R) }

// M returns the number of conflicting-edges on the chain.
func (c Chain) M() int { return len(c.R) - 1 }

func (c Chain) validate() error {
	n := len(c.R)
	if n == 0 {
		return fmt.Errorf("chainopt: empty chain")
	}
	if len(c.Down) != n-1 || len(c.Up) != n-1 {
		return fmt.Errorf("chainopt: %d nodes need %d edge weights, got down=%d up=%d",
			n, n-1, len(c.Down), len(c.Up))
	}
	if c.Fixed != nil && len(c.Fixed) != n-1 {
		return fmt.Errorf("chainopt: %d fixed orientations for %d edges", len(c.Fixed), n-1)
	}
	for i, v := range c.R {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("chainopt: bad R[%d] = %g", i, v)
		}
	}
	for i := 0; i < n-1; i++ {
		if c.Down[i] < 0 || math.IsNaN(c.Down[i]) || math.IsInf(c.Down[i], 0) {
			return fmt.Errorf("chainopt: bad Down[%d] = %g", i, c.Down[i])
		}
		if c.Up[i] < 0 || math.IsNaN(c.Up[i]) || math.IsInf(c.Up[i], 0) {
			return fmt.Errorf("chainopt: bad Up[%d] = %g", i, c.Up[i])
		}
	}
	return nil
}

func (c Chain) fixedAt(i int) Orientation {
	if c.Fixed == nil {
		return Free
	}
	return c.Fixed[i]
}

// Solution is an optimal full orientation and its critical-path length.
type Solution struct {
	Orient []Orientation // len N-1, every entry Down or Up
	Length float64
}

// Evaluate returns the critical-path length of the chain under a complete
// orientation: the maximum over maximal same-direction runs of the
// longest T0-entering path through the run (plus each node's own
// w(T0→n[k]), which every run accounts for at its entry points).
func Evaluate(c Chain, orient []Orientation) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	m := c.M()
	if len(orient) != m {
		return 0, fmt.Errorf("chainopt: %d orientations for %d edges", len(orient), m)
	}
	for i, o := range orient {
		if o == Free {
			return 0, fmt.Errorf("chainopt: edge %d unoriented", i)
		}
		if f := c.fixedAt(i); f != Free && f != o {
			return 0, fmt.Errorf("chainopt: edge %d violates fixed orientation %v", i, f)
		}
	}
	if m == 0 {
		return c.R[0], nil
	}
	best := 0.0
	i := 0
	for i < m {
		j := i
		for j+1 < m && orient[j+1] == orient[i] {
			j++
		}
		var cost float64
		if orient[i] == Down {
			cost = segDown(c, i, j)
		} else {
			cost = segUp(c, i, j)
		}
		if cost > best {
			best = cost
		}
		i = j + 1
	}
	return best, nil
}

// segDown is the longest path through the down-run covering edges i..j:
// max over entry nodes t∈[i, j+1] of R[t] + Σ Down[t..j]. This is the
// appendix's V(h) recurrence.
func segDown(c Chain, i, j int) float64 {
	v := c.R[i]
	for e := i; e <= j; e++ {
		v = math.Max(v+c.Down[e], c.R[e+1])
	}
	return v
}

// segUp mirrors segDown for an up-run (paths flow toward node i):
// max over entry nodes t∈[i, j+1] of R[t] + Σ Up[i..t-1].
func segUp(c Chain, i, j int) float64 {
	v := c.R[i]
	pre := 0.0
	for e := i; e <= j; e++ {
		pre += c.Up[e]
		if cand := c.R[e+1] + pre; cand > v {
			v = cand
		}
	}
	return v
}

// Solve computes an optimal orientation in O(N²) by dynamic programming
// over maximal-run decompositions (see Solver.Solve). Its Solution is
// the caller's own; a caller that solves many chains reuses a Solver.
func Solve(c Chain) (Solution, error) {
	var s Solver
	return s.Solve(c)
}

// Solver runs Solve's dynamic program into scratch it owns and reuses,
// so a warm solver allocates nothing. The Orient of a Solution it returns
// is that scratch: valid until the solver's next Solve. The zero Solver
// is ready; a Solver is not safe for concurrent use.
type Solver struct {
	dp     [][2]float64
	choice [][2]int
	orient []Orientation
}

// Solve computes an optimal orientation: dp[i][dir] is the minimal
// critical path of the suffix of edges i.. whose first maximal run has
// direction dir; a run covering edges i..j costs seg(i,j,dir) and forces
// the next run to the opposite direction. Fixed edges restrict which
// runs are admissible. Every dp and choice row below m is written before
// it is read, so rows left over from a longer chain never leak in; an
// error leaves the solver usable.
func (s *Solver) Solve(c Chain) (Solution, error) {
	if err := c.validate(); err != nil {
		return Solution{}, err
	}
	m := c.M()
	if m == 0 {
		return Solution{Orient: []Orientation{}, Length: c.R[0]}, nil
	}
	inf := math.Inf(1)
	s.dp = slices.Grow(s.dp[:0], m)[:m]
	s.choice = slices.Grow(s.choice[:0], m)[:m]
	dp, choice := s.dp, s.choice
	dirs := [2]Orientation{Down, Up}
	for i := m - 1; i >= 0; i-- {
		for di, dir := range dirs {
			best, bestJ := inf, -1
			// Incremental run cost over edges i..j.
			var v, pre float64
			v = c.R[i]
			for j := i; j < m; j++ {
				if f := c.fixedAt(j); f != Free && f != dir {
					break
				}
				if dir == Down {
					v = math.Max(v+c.Down[j], c.R[j+1])
				} else {
					pre += c.Up[j]
					v = math.Max(v, c.R[j+1]+pre)
				}
				rest := 0.0
				if j+1 < m {
					rest = dp[j+1][1-di]
				}
				if cand := math.Max(v, rest); cand < best {
					best, bestJ = cand, j
				}
			}
			dp[i][di] = best
			choice[i][di] = bestJ
		}
	}
	length := math.Min(dp[0][0], dp[0][1])
	if math.IsInf(length, 1) {
		return Solution{}, fmt.Errorf("chainopt: no orientation satisfies fixed edges")
	}
	s.orient = slices.Grow(s.orient[:0], m)[:m]
	orient := s.orient
	di := 0
	if dp[0][1] < dp[0][0] {
		di = 1
	}
	for i := 0; i < m; {
		j := choice[i][di]
		if j < i {
			return Solution{}, fmt.Errorf("chainopt: internal reconstruction failure at %d", i)
		}
		for e := i; e <= j; e++ {
			orient[e] = dirs[di]
		}
		i = j + 1
		di = 1 - di
	}
	return Solution{Orient: orient, Length: length}, nil
}

// SolveExhaustive enumerates every orientation compatible with Fixed and
// returns the best; it is the test oracle for Solve and SolvePaper and is
// exponential in the chain length.
func SolveExhaustive(c Chain) (Solution, error) {
	if err := c.validate(); err != nil {
		return Solution{}, err
	}
	m := c.M()
	if m == 0 {
		return Solution{Orient: []Orientation{}, Length: c.R[0]}, nil
	}
	if m > 24 {
		return Solution{}, fmt.Errorf("chainopt: exhaustive solve of %d edges refused", m)
	}
	best := Solution{Length: math.Inf(1)}
	orient := make([]Orientation, m)
	var rec func(i int) error
	rec = func(i int) error {
		if i == m {
			length, err := Evaluate(c, orient)
			if err != nil {
				return err
			}
			if length < best.Length {
				best.Length = length
				best.Orient = append([]Orientation(nil), orient...)
			}
			return nil
		}
		for _, dir := range [2]Orientation{Down, Up} {
			if f := c.fixedAt(i); f != Free && f != dir {
				continue
			}
			orient[i] = dir
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return Solution{}, err
	}
	if math.IsInf(best.Length, 1) {
		return Solution{}, fmt.Errorf("chainopt: no orientation satisfies fixed edges")
	}
	return best, nil
}

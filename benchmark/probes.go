package main

import (
	"math/rand"
	"os"
	"sort"
	"time"

	"batsched/internal/core/chainopt"
	"batsched/internal/core/estimate"
	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// Kernel probes: the three scheduler kernels and the WAL force timed
// directly on fixed inputs, so a change in a sched.*_us_mean or in the
// commit latency can be traced to (or cleared of) its kernel. The
// graphs are fixed, not drawn from -seed.

const probeTxns = 64 // transactions in every probe graph

// probeGraph builds a 64-transaction WTPG: 8 lock holders with resolved
// edges to 56 waiters, and unresolved conflicts between waiter pairs.
func probeGraph() (*wtpg.Graph, []txn.ID) {
	g := wtpg.New()
	rng := rand.New(rand.NewSource(2))
	w := func() float64 { return float64(rng.Intn(10)) }
	const holders = 8
	for id := txn.ID(1); id <= probeTxns; id++ {
		_ = g.AddNode(id, w()) // ids are fresh: AddNode cannot fail
	}
	var waiters []txn.ID
	for id := txn.ID(holders + 1); id <= probeTxns; id++ {
		waiters = append(waiters, id)
		for h := txn.ID(1); h <= holders; h++ {
			_ = g.AddConflict(h, id, w(), w())
			_ = g.Resolve(h, id)
		}
	}
	for i := 0; i+1 < len(waiters); i += 2 {
		_ = g.AddConflict(waiters[i], waiters[i+1], w(), w())
	}
	return g, waiters
}

// perCall times five batches of iters/5 calls of f and returns the
// fastest batch's mean in ns per call.
func perCall(iters int, f func(i int)) float64 {
	batch := iters / 5
	best := 0.0
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f(i)
		}
		if ns := float64(time.Since(start)) / float64(batch); b == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func kernelProbes(v values, root string, quick bool) error {
	iters := 20000
	if quick {
		iters = 1000
	}
	g, waiters := probeGraph()
	q, targets := waiters[0], []txn.ID{waiters[1], waiters[2], waiters[3]}
	v["estimate.e_ns"] = perCall(iters, func(int) { estimate.E(g, q, targets) })
	v["wtpg.critpath_ns"] = perCall(iters, func(i int) {
		g.SetW0(q, float64(i%17)) // invalidates the cached path
		_, _ = g.CriticalPath()   // the probe graph is acyclic
	})

	rng := rand.New(rand.NewSource(3))
	c := chainopt.Chain{R: make([]float64, probeTxns), Down: make([]float64, probeTxns-1), Up: make([]float64, probeTxns-1)}
	for i := range c.R {
		c.R[i] = float64(rng.Intn(10))
	}
	for i := range c.Down {
		c.Down[i], c.Up[i] = float64(rng.Intn(10)), float64(rng.Intn(10))
	}
	if _, err := chainopt.Solve(c); err != nil {
		return err
	}
	v["chainopt.solve_us"] = perCall(iters/10, func(int) { _, _ = chainopt.Solve(c) }) / 1e3

	// WAL force: one caller, Append + Sync per record, real fsync.
	dir, err := os.MkdirTemp(root, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, 1)
	if err != nil {
		return err
	}
	defer l.Close()
	forces := iters / 100
	ns := make([]float64, forces)
	steps := []wal.StepRef{{Mode: txn.Read, Part: 0}, {Mode: txn.Write, Part: 8}, {Mode: txn.Write, Part: 9}}
	for i := range ns {
		start := time.Now()
		if err := l.Append(wal.Record{Kind: wal.Begin, Txn: txn.ID(i + 1), Steps: steps}); err != nil {
			return err
		}
		if _, err := l.Sync(); err != nil {
			return err
		}
		ns[i] = float64(time.Since(start))
	}
	sort.Float64s(ns)
	v["wal.force_us_p50"] = quantile(ns, 0.50) / 1e3
	return nil
}

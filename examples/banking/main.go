// Banking night batch: the paper's motivating scenario (§1).
//
// "A BAT in a banking system reads history-files for statistic analysis,
// and then updates master-files according to this analysis." This example
// models an off-line service window on an 8-node shared-nothing machine:
// a stream of such analyse-then-update BATs must finish in a short time,
// so they run concurrently under each scheduler and we compare how many
// the window completes, the mean response time, and whether chains of
// blocking appear.
//
// Run with: go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"math/rand"

	"batsched"
)

func main() {
	// Database layout on 8 nodes: 8 history partitions (one per node,
	// large, read-mostly) and 8 master partitions (hot, updated).
	// A batch job reads two history partitions, then applies the analysis
	// to two master partitions: r(H1:4) -> r(H2:4) -> w(M1:1) -> w(M2:1).
	pattern, err := batsched.ParsePattern("NightBatch",
		"r(H1:4) -> r(H2:4) -> w(M1:1) -> w(M2:1)")
	if err != nil {
		log.Fatal(err)
	}
	const numHistory, numMaster = 8, 8
	gen := &batsched.PatternWorkload{
		Label:   "banking-night-batch",
		Pattern: pattern,
		// parts follows the pattern's variables in first-use order: H1,
		// H2, M1, M2.
		BindVars: func(rng *rand.Rand, parts []batsched.PartitionID) {
			parts[0], parts[1] = twoOf(rng, 0, numHistory)
			parts[2], parts[3] = twoOf(rng, numHistory, numMaster)
		},
	}

	mc := batsched.DefaultMachine()
	mc.NumParts = numHistory + numMaster

	// A 30-minute off-line window, jobs arriving at 0.5 TPS.
	const window = 30 * 60 * 1000 // clocks (ms)
	fmt.Println("Night-batch window: 30 simulated minutes, λ = 0.5 jobs/s, 8 nodes")
	fmt.Printf("Job pattern: %v\n\n", pattern)
	fmt.Printf("%-12s %10s %10s %10s %12s %10s\n",
		"scheduler", "completed", "meanRT(s)", "aborts", "blocks+delays", "DN util")

	for _, f := range []batsched.SchedulerFactory{
		batsched.NODC(), batsched.ASL(), batsched.CHAIN(),
		batsched.KWTPG(2), batsched.C2PL(),
	} {
		cfg := batsched.SimConfig{
			Machine:              mc,
			Scheduler:            f,
			Workload:             gen,
			ArrivalRate:          0.5,
			Horizon:              window,
			Seed:                 2026,
			CheckSerializability: f.Label != "NODC",
		}
		res, err := batsched.Simulate(cfg)
		if err != nil {
			log.Fatalf("%s: %v", f.Label, err)
		}
		fmt.Printf("%-12s %10d %10.1f %10d %12d %9.0f%%\n",
			res.Scheduler, res.Completed, res.MeanRT,
			res.AdmissionAborts, res.RequestBlocks+res.RequestDelays,
			100*res.MeanNodeUtil)
	}

	fmt.Println(`
Reading the table: NODC is the contention-free upper bound. With updates
concentrated on hot master files this window behaves like the paper's
Experiment 2: ASL's all-or-nothing lock acquisition starves (fewest jobs,
worst response time), CHAIN pays for its chain-form admission constraint
(the abort column counts rejected start attempts, each retried later),
and K2 — which accepts any WTPG shape and grants by smallest E(q) —
tracks the upper bound almost exactly. Push the arrival rate or the
read sizes up (Experiment 1's regime) and the ordering flips in ASL's
favour; see cmd/batbench for both sweeps.`)
}

// twoOf returns rng.Perm(n)[:2] shifted by lo, draw for draw, without
// building the permutation: Perm's inside-out shuffle, keeping only its
// first two entries.
func twoOf(rng *rand.Rand, lo, n int) (batsched.PartitionID, batsched.PartitionID) {
	var m [2]int
	for i := range n {
		j := rng.Intn(i + 1)
		if i < 2 {
			m[i] = m[j]
		}
		if j < 2 {
			m[j] = i
		}
	}
	return batsched.PartitionID(lo + m[0]), batsched.PartitionID(lo + m[1])
}

// Observability walkthrough: run one short simulation with every sink
// attached, then peek inside the scheduler three ways.
//
//   - a ring buffer holds the most recent structured events for
//     programmatic inspection (here: the last transaction's lifecycle),
//   - a JSONL sink streams every event to a file for offline analysis
//     (one JSON object per line; jq-friendly),
//   - a metrics aggregate turns the same stream into per-scheduler
//     decision counts and latency histograms.
//
// The same sinks plug into the live Controller
// (batsched.WithControllerObserver) and the experiment harness
// (batsched.WithExperimentTrace); see
// docs/OBSERVABILITY.md for the event schema.
//
// Run with: go run ./examples/tracing
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"batsched"
)

func main() {
	dir, err := os.MkdirTemp("", "batsched-tracing")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "trace.jsonl")

	ring := batsched.NewRingSink(1 << 12)
	jsonl, err := batsched.CreateJSONLSink(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	metrics := batsched.NewMetrics()

	cfg := batsched.SimConfig{
		Machine:     batsched.DefaultMachine(),
		Scheduler:   batsched.KWTPG(2),
		Workload:    batsched.WorkloadExperiment1(16),
		ArrivalRate: 0.6,
		Horizon:     200_000, // 200 simulated seconds
		Seed:        1990,
	}
	res, err := batsched.Simulate(cfg,
		batsched.WithSimTrace(batsched.MultiObserver(ring, jsonl, metrics)))
	if err != nil {
		log.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %s: %d arrived, %d completed, mean RT %.1f s\n\n",
		res.Scheduler, res.Arrived, res.Completed, res.MeanRT)

	// 1. Ring buffer: walk the last committed transaction's lifecycle.
	events := ring.Events()
	var lastCommit batsched.TraceEvent
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == batsched.TraceCommit {
			lastCommit = events[i]
			break
		}
	}
	fmt.Printf("lifecycle of the last committed transaction (T%d):\n", lastCommit.Txn)
	for _, e := range events {
		if e.Txn == lastCommit.Txn {
			fmt.Printf("  %s\n", e)
		}
	}

	// 2. JSONL file: show the first lines of the machine-readable trace.
	f, err := os.Open(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Printf("\nfirst lines of %s:\n", filepath.Base(tracePath))
	sc := bufio.NewScanner(f)
	for i := 0; i < 3 && sc.Scan(); i++ {
		fmt.Printf("  %s\n", sc.Text())
	}

	// 3. Metrics: the human-readable summary table.
	fmt.Println()
	fmt.Println(metrics.Summary())
}

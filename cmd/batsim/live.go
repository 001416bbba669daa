package main

// The -shards flag routes batsim's workload through the live controller
// (internal/live) with real goroutines instead of the discrete-event
// simulator: the same generator produces -livetxns transactions, every
// one runs to commit through the sharded hot path, and the run reports
// wall-clock throughput. This is the CLI face of the PR 8 sharding work
// (DESIGN.md §13); the simulator path is untouched when -shards is 0.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// liveFlags are the flags -shards live mode reads: the scheduler, the
// workload and its shape, the seed, the transaction count, and profiling.
var liveFlags = map[string]bool{
	"sched": true, "workload": true, "pattern": true, "numparts": true, "numhots": true,
	"sigma": true, "seed": true, "shards": true, "livetxns": true, "cpuprofile": true,
}

// checkLiveFlags names every flag set on fs that live mode would ignore.
func checkLiveFlags(fs *flag.FlagSet) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !liveFlags[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("-shards runs the live controller, which does not read %s", strings.Join(ignored, ", "))
	}
	return nil
}

// runLiveMode drives n generated transactions through a live controller
// with the given shard count, a bounded in-flight window of
// 8×GOMAXPROCS arrivals, and prints the committed count and throughput.
func runLiveMode(factory sched.Factory, gen workload.Generator, shards, n int, seed int64) error {
	if n < 1 {
		return fmt.Errorf("-livetxns %d: need at least one transaction", n)
	}
	rng := rand.New(rand.NewSource(seed))
	ts := make([]*txn.T, n)
	for i := range ts {
		ts[i] = gen.Next(txn.ID(i+1), rng)
	}
	ctl := live.New(factory, sched.Costs{KeepTime: 50},
		live.WithShards(shards), live.WithRetryDelay(time.Millisecond))
	defer ctl.Close()

	window := make(chan struct{}, 8*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	failed := 0
	start := time.Now()
	for _, t := range ts {
		window <- struct{}{}
		wg.Add(1)
		go func(t *txn.T) {
			defer wg.Done()
			defer func() { <-window }()
			err := ctl.Run(context.Background(), t, func(step int, p live.Progress) error {
				p(1)
				return nil
			})
			if err != nil {
				mu.Lock()
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("txn %v: %w", t.ID, err)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctl.CheckInvariants(); err != nil {
		return err
	}
	st := ctl.Stats()
	fmt.Printf("mode        live controller (real goroutines)\n")
	fmt.Printf("scheduler   %s\n", factory.Label)
	fmt.Printf("workload    %s\n", gen.Name())
	fmt.Printf("shards      %d\n", ctl.Shards())
	fmt.Printf("txns        %d (committed %d, failed %d)\n", n, st.Committed, failed)
	fmt.Printf("wall        %.3fs\n", elapsed.Seconds())
	fmt.Printf("throughput  %.0f txn/s\n", float64(st.Committed)/elapsed.Seconds())
	return firstErr
}

package main

// The -live flag routes batsim's workload through the live controller
// (internal/live) with real goroutines instead of the discrete-event
// simulator: the same generator produces -livetxns transactions, every
// one runs to commit through the controller, and the run reports
// wall-clock throughput. This is the CLI face of the live controller,
// and the only mode that writes files: -wal logs its commits, -storage
// backs its steps with heap files (-pagesize, -pool).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

// liveFlags are the flags -live mode reads: the scheduler, the
// workload and its shape, the seed, the transaction count, profiling,
// and (true) the files only live mode writes: the log, and the heap store
// with its shape.
var liveFlags = map[string]bool{
	"sched": false, "workload": false, "pattern": false, "numparts": false, "numhots": false,
	"sigma": false, "seed": false, "live": false, "livetxns": false, "cpuprofile": false,
	"wal": true, "storage": true, "pagesize": true, "pool": true,
}

// checkLiveFlags names every flag set on fs that the chosen mode would
// ignore: live mode reads only liveFlags, and the simulator writes no
// file.
func checkLiveFlags(fs *flag.FlagSet, liveMode bool) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if file, live := liveFlags[f.Name]; (liveMode && !live) || (!liveMode && file) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	switch {
	case len(ignored) > 0 && liveMode:
		return fmt.Errorf("-live runs the live controller, which does not read %s", strings.Join(ignored, ", "))
	case len(ignored) > 0:
		return fmt.Errorf("%s: the simulator writes no file; add -live to run the live controller", strings.Join(ignored, ", "))
	}
	return nil
}

// liveFiles is what -wal and -storage open: the dependency log over
// nodes node files and the heap store over parts partitions.
type liveFiles struct {
	walDir, storageDir   string
	pageSize, poolFrames int
	nodes, parts         int
}

// liveMPL is live mode's in-flight window: the number of transactions
// running at once, fixed so the multiprogramming level — and with it the
// contention a run measures — does not change with the core count. 16 is
// the hot-set MPL of the repository's benchmark.
const liveMPL = 16

// runLiveMode drives n generated transactions through a live controller,
// at most liveMPL of them in flight at once, over the log and store files
// names (either may be empty), and prints the committed count and
// throughput, then the log's and the store's counters read after both are
// closed. A log directory that already holds commits — an earlier run's —
// is appended to: the transactions are numbered after its highest
// committed id, so a recovery keeps the commits of both runs.
func runLiveMode(factory sched.Factory, gen workload.Generator, n int, seed int64, files liveFiles) (err error) {
	if n < 1 {
		return fmt.Errorf("-livetxns %d: need at least one transaction", n)
	}
	var logged txn.ID
	if files.walDir != "" {
		scans, err := wal.Scan(files.walDir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) { // a missing directory holds no log yet
			return err
		}
		rec, err := wal.Replay(scans, 1, nil)
		if err != nil {
			return err
		}
		logged = rec.MaxID
	}
	rng := rand.New(rand.NewSource(seed))
	ts := make([]*txn.T, n)
	for i := range ts {
		ts[i] = gen.Next(logged+txn.ID(i+1), rng)
	}
	opts := []live.Option{live.WithRetryDelay(time.Millisecond)}
	var log *wal.Log
	if files.walDir != "" {
		if log, err = wal.Open(files.walDir, files.nodes); err != nil {
			return err
		}
		opts = append(opts, live.WithWALLog(log))
	}
	var store *storage.Store
	if files.storageDir != "" {
		store, err = storage.Open(files.storageDir, files.parts,
			storage.WithPageSize(files.pageSize), storage.WithPoolFrames(files.poolFrames))
		if err != nil {
			if log != nil {
				log.Close()
			}
			return err
		}
		opts = append(opts, live.WithStorage(store))
	}
	ctl := live.New(factory, sched.Costs{KeepTime: 50}, opts...)

	window := make(chan struct{}, liveMPL)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var runErr error
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
				if runErr == nil {
					runErr = fmt.Errorf("txn %v: %w", t.ID, err)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctl.CheckInvariants(); err != nil {
		runErr = errors.Join(err, runErr)
	}
	st := ctl.Stats()
	ctl.Close()
	// The store first: its Close writes the dirty pages back through the
	// write barrier, which forces the log.
	if store != nil {
		if err := store.Close(); err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("storage: close: %w", err))
		}
	}
	if log != nil {
		if err := log.Close(); err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("wal: close: %w", err))
		}
	}
	fmt.Printf("mode        live controller (real goroutines)\n")
	fmt.Printf("scheduler   %s\n", factory.Label)
	fmt.Printf("workload    %s\n", gen.Name())
	fmt.Printf("txns        %d, ids %d–%d (committed %d, failed %d)\n", n, logged+1, logged+txn.ID(n), st.Committed, failed)
	fmt.Printf("wall        %.3fs\n", elapsed.Seconds())
	fmt.Printf("throughput  %.0f txn/s\n", float64(st.Committed)/elapsed.Seconds())
	if log != nil {
		ws := log.Stats()
		fmt.Printf("wal         %d records appended, %d fsync passes (max batch %d), logs under %s\n",
			ws.Appends, ws.Syncs, ws.MaxBatch, files.walDir)
	}
	if store != nil {
		ps := store.Stats()
		fmt.Printf("storage     %d page reads (%.1f%% pool hits, %d misses in %d backend reads), %d writes, %d evictions, heap under %s\n",
			ps.Hits+ps.Misses, 100*ps.HitRate(), ps.Misses, ps.ReadCalls,
			ps.BytesWritten/uint64(files.pageSize), ps.Evictions, files.storageDir)
	}
	return runErr
}

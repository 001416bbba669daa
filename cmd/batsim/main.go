// Command batsim runs a single simulation of the paper's shared-nothing
// machine under one scheduler and one workload, printing the run metrics.
//
// Examples:
//
//	batsim -sched CHAIN -workload exp1 -lambda 0.6
//	batsim -sched K2 -workload exp2 -numhots 4 -lambda 0.8 -horizon 500000
//	batsim -sched CHAIN -workload exp4 -sigma 0.5 -lambda 0.6
//	batsim -sched K2 -workload exp1 -wal /tmp/batwal     # dependency-log the run
//	batsim -recoverwal /tmp/batwal                       # replay + recovery report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/sim"
	"batsched/internal/storage"
	"batsched/internal/textplot"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

func main() {
	var (
		schedName = flag.String("sched", "K2", "scheduler name; any registered scheduler: "+strings.Join(sched.Names(), ", ")+", K<k>, K<k>-C2PL")
		wl        = flag.String("workload", "exp1", "workload: exp1, exp2, exp3, exp4, custom")
		pattern   = flag.String("pattern", "", "custom pattern for -workload custom, e.g. \"r(F1:2) -> w(F2:1)\"")
		lambda    = flag.Float64("lambda", 0.5, "arrival rate (transactions per second)")
		horizon   = flag.Int64("horizon", 2_000_000, "simulated clocks (1 clock = 1 ms)")
		seed      = flag.Int64("seed", 1990, "random seed")
		numParts  = flag.Int("numparts", 16, "partitions (exp1/exp4)")
		numHots   = flag.Int("numhots", 8, "hot partitions (exp2/exp3)")
		sigma     = flag.Float64("sigma", 0.5, "declaration error std-dev (exp4)")
		warmup    = flag.Int64("warmup", 0, "measurement warmup clocks")
		nocheck   = flag.Bool("nocheck", false, "skip the serializability check")
		verbose   = flag.Bool("v", false, "print per-node utilization")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		traceOut  = flag.String("trace", "", "write a structured JSONL trace to this file ('-' for stdout)")
		metrics   = flag.Bool("metrics", false, "print decision counts and latency histograms after the run")
		selfCheck = flag.Bool("selfcheck", false, "verify lock-table invariants after every commit")
		plotLive  = flag.Bool("plotlive", false, "chart live transactions over time (DC-thrashing view)")
		jsonOut   = flag.String("json", "", "also write the full result as JSON to this file ('-' for stdout)")

		shards   = flag.Int("shards", 0, "run the workload through the sharded live controller (real goroutines, DESIGN.md §13) instead of the simulator; 0 = simulator")
		liveTxns = flag.Int("livetxns", 1000, "transactions to drive in -shards live mode")

		walDir     = flag.String("wal", "", "write per-node dependency logs under this directory (docs/ROBUSTNESS.md §9)")
		recoverWAL = flag.String("recoverwal", "", "scan + parallel-replay the dependency logs under this directory, print the recovery report, and exit")

		storageDir = flag.String("storage", "", "back the run with heap files under this directory (docs/STORAGE.md); empty = pure model")
		pageSize   = flag.Int("pagesize", storage.DefaultPageSize, "heap-file page size in bytes (requires -storage)")
		poolFrames = flag.Int("pool", 64, "buffer-pool frames per store (requires -storage)")
	)
	flag.Parse()

	if *recoverWAL != "" {
		if err := recoverReport(*recoverWAL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	factory, err := sched.Lookup(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mc := machine.DefaultConfig()
	var gen workload.Generator
	switch *wl {
	case "exp1":
		mc.NumParts = *numParts
		gen = workload.Experiment1(*numParts)
	case "exp2":
		l := workload.HotSetLayout{NumReadOnly: 8, NumHots: *numHots}
		mc.NumParts = l.NumParts()
		gen = workload.Experiment2(l)
	case "exp3":
		l := workload.HotSetLayout{NumReadOnly: 8, NumHots: *numHots}
		mc.NumParts = l.NumParts()
		gen = workload.Experiment3(l)
	case "exp4":
		mc.NumParts = *numParts
		gen = workload.WithDeclarationError(workload.Experiment1(*numParts), *sigma)
	case "custom":
		if *pattern == "" {
			fmt.Fprintln(os.Stderr, "-workload custom needs -pattern")
			os.Exit(2)
		}
		pat, err := txn.ParsePattern("custom", *pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mc.NumParts = *numParts
		gen = workload.UniformPattern(pat, *numParts)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	if *shards != 0 {
		if err := checkLiveFlags(flag.CommandLine, *shards); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *liveTxns < 1 {
			fmt.Fprintf(os.Stderr, "-livetxns %d: need at least one transaction\n", *liveTxns)
			os.Exit(2)
		}
		if err := runLiveMode(factory, gen, *shards, *liveTxns, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "live run failed:", err)
			os.Exit(1)
		}
		return
	}

	cfg := sim.Config{
		Machine:              mc,
		Scheduler:            factory,
		Workload:             gen,
		ArrivalRate:          *lambda,
		Horizon:              event.Time(*horizon),
		Warmup:               event.Time(*warmup),
		Seed:                 *seed,
		CheckSerializability: !*nocheck && factory.Label != "NODC",
		SelfCheck:            *selfCheck,
	}
	if *plotLive {
		cfg.SampleEvery = cfg.Horizon / 60
		if cfg.SampleEvery < 1 {
			cfg.SampleEvery = 1
		}
	}
	var simOpts []sim.Option
	var observers []obs.Observer
	var jsonl *obs.JSONL
	if *traceOut == "-" {
		jsonl = obs.NewJSONL(os.Stdout)
	} else if *traceOut != "" {
		var err error
		jsonl, err = obs.CreateJSONL(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if jsonl != nil {
		observers = append(observers, jsonl)
	}
	var agg *obs.Metrics
	if *metrics {
		agg = obs.NewMetrics()
		observers = append(observers, agg)
	}
	if len(observers) > 0 {
		simOpts = append(simOpts, sim.WithTrace(obs.Multi(observers...)))
	}
	var walLog *wal.Log
	if *walDir != "" {
		var err error
		walLog, err = wal.Open(*walDir, mc.NumNodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		simOpts = append(simOpts, sim.WithWAL(walLog))
	}
	var store *storage.Store
	if *storageDir != "" {
		var err error
		store, err = storage.Open(*storageDir, mc.NumParts,
			storage.WithPageSize(*pageSize),
			storage.WithPoolFrames(*poolFrames),
			storage.WithNodes(mc.NumNodes))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		simOpts = append(simOpts, sim.WithStorage(store))
	}
	start := time.Now()
	res, err := sim.Run(cfg, simOpts...)
	elapsed := time.Since(start)
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "trace:", cerr)
			os.Exit(1)
		}
	}
	if walLog != nil {
		if cerr := walLog.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "wal:", cerr)
			os.Exit(1)
		}
	}
	var poolStats storage.PoolStats
	if store != nil {
		poolStats = store.Stats()
		if cerr := store.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "storage:", cerr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	fmt.Printf("scheduler   %s\n", res.Scheduler)
	fmt.Printf("workload    %s\n", res.Workload)
	fmt.Printf("lambda      %.3f TPS\n", res.ArrivalRate)
	fmt.Printf("horizon     %v (wall %.2fs)\n", res.Horizon, elapsed.Seconds())
	fmt.Printf("arrived     %d\n", res.Arrived)
	fmt.Printf("admitted    %d (delays %d, aborts %d)\n", res.Admitted, res.AdmissionDelays, res.AdmissionAborts)
	fmt.Printf("completed   %d\n", res.Completed)
	fmt.Printf("mean RT     %.2f s (std %.2f)\n", res.MeanRT, res.StdRT)
	fmt.Printf("throughput  %.4f TPS\n", res.Throughput)
	fmt.Printf("blocks      %d, delays %d\n", res.RequestBlocks, res.RequestDelays)
	fmt.Printf("CN util     %.3f\n", res.CNUtilization)
	fmt.Printf("DN util     %.3f (mean)\n", res.MeanNodeUtil)
	fmt.Printf("max live    %d\n", res.MaxLive)
	if res.SerializabilityChecked {
		fmt.Printf("serializable: yes\n")
	}
	if walLog != nil {
		st := walLog.Stats()
		fmt.Printf("wal         %d records appended, %d fsync passes (max batch %d), logs under %s\n",
			st.Appends, st.Syncs, st.MaxBatch, *walDir)
	}
	if store != nil {
		total := poolStats.BytesRead + poolStats.BytesWritten
		reads := "no backend reads"
		if poolStats.ReadCalls > 0 { // a miss on a page being created reads nothing
			reads = fmt.Sprintf("%.1f pages per backend read",
				float64(poolStats.BytesRead/uint64(*pageSize))/float64(poolStats.ReadCalls))
		}
		fmt.Printf("storage     %d page reads (%.1f%% pool hits, %s), %d writes, %d evictions, %.2f MB/s wall, heap under %s\n",
			poolStats.Hits+poolStats.Misses, 100*poolStats.HitRate(), reads,
			poolStats.BytesWritten/uint64(*pageSize), poolStats.Evictions,
			float64(total)/1e6/elapsed.Seconds(), *storageDir)
	}
	if agg != nil {
		fmt.Println()
		fmt.Println(agg.Summary())
	}
	if *verbose {
		for i, u := range res.NodeUtilization {
			fmt.Printf("  node %d util %.3f\n", i, u)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
	}
	if *plotLive && len(res.Samples) > 0 {
		live := textplot.Series{Label: "live txns", Marker: 'o'}
		busy := textplot.Series{Label: "busy nodes", Marker: '#'}
		for _, smp := range res.Samples {
			at := smp.At.Seconds()
			live.X = append(live.X, at)
			live.Y = append(live.Y, float64(smp.Live))
			busy.X = append(busy.X, at)
			busy.Y = append(busy.Y, float64(smp.BusyNodes))
		}
		chart := textplot.Chart{
			Title:  "Live transactions over time (rising line = DC thrashing)",
			XLabel: "time (s)", YLabel: "count",
		}
		if out, err := chart.Render([]textplot.Series{live, busy}); err == nil {
			fmt.Println()
			fmt.Print(out)
		}
	}
}

// recoverReport scans the per-node dependency logs under dir, replays
// the committed history wave-parallel, audits the result with
// modelcheck.VerifyRecovery, and prints what a restart would rebuild.
func recoverReport(dir string) error {
	scans, err := wal.Scan(dir)
	if err != nil {
		return err
	}
	rec, err := wal.Replay(scans, 0, nil)
	if err != nil {
		return err
	}
	if err := modelcheck.VerifyRecovery(scans, rec); err != nil {
		return err
	}
	var torn int64
	for _, ns := range scans {
		torn += ns.TruncatedBytes
		fmt.Printf("node %-4d %d records, %d valid bytes, %d torn bytes\n",
			ns.Node, len(ns.Records), ns.ValidBytes, ns.TruncatedBytes)
	}
	fmt.Printf("records    %d across %d node logs (%d torn bytes truncated)\n", rec.Records, len(scans), torn)
	fmt.Printf("committed  %d replayed in %d waves (max %d in parallel)\n", len(rec.Committed), rec.Waves, rec.MaxParallel)
	fmt.Printf("replay     %.2fms wall; invariants: ok\n", float64(rec.Elapsed.Nanoseconds())/1e6)
	return nil
}

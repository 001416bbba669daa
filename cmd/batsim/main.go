// Command batsim runs a single simulation of the paper's shared-nothing
// machine under one scheduler and one workload, printing the run metrics.
//
// Examples:
//
//	batsim -sched CHAIN -workload exp1 -lambda 0.6
//	batsim -sched K2 -workload exp2 -numhots 4 -lambda 0.8 -horizon 500000
//	batsim -sched CHAIN -workload exp4 -sigma 0.5 -lambda 0.6
//	batsim -live -livetxns 500 -wal /tmp/batwal -storage /tmp/batheap
//	                                     # the live controller, logged and heap-backed
//	batsim -recoverwal /tmp/batwal       # replay + recovery report
//
// The simulator is a cost model and writes no file: -wal, -storage,
// -pagesize and -pool belong to -live, which runs the workload through
// the live controller (internal/live) with real goroutines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
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
		schedName = flag.String("sched", "K2", "scheduler name; any registered scheduler: "+strings.Join(sched.Names(), ", "))
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

		liveMode = flag.Bool("live", false, "run the workload through the live controller (real goroutines, internal/live) instead of the simulator")
		liveTxns = flag.Int("livetxns", 1000, "transactions to drive in -live mode")

		walDir     = flag.String("wal", "", "write per-node dependency logs of the -live run under this directory, numbering its transactions after any commit the directory already holds (docs/ROBUSTNESS.md §9)")
		recoverWAL = flag.String("recoverwal", "", "scan + parallel-replay the dependency logs under this directory, print the recovery report, and exit")

		storageDir = flag.String("storage", "", "back the -live run with heap files under this directory (docs/STORAGE.md)")
		pageSize   = flag.Int("pagesize", storage.DefaultPageSize, "heap-file page size in bytes (requires -storage)")
		poolFrames = flag.Int("pool", 64, "buffer-pool frames (requires -storage)")
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
	gen, parts, err := chooseWorkload(*wl, *pattern, *numParts, *numHots, *sigma)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mc := machine.DefaultConfig()
	mc.NumParts = parts
	if err := checkLiveFlags(flag.CommandLine, *liveMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *liveMode {
		if *liveTxns < 1 {
			fmt.Fprintf(os.Stderr, "-livetxns %d: need at least one transaction\n", *liveTxns)
			os.Exit(2)
		}
		files := liveFiles{walDir: *walDir, storageDir: *storageDir, pageSize: *pageSize, poolFrames: *poolFrames,
			nodes: mc.NumNodes, parts: mc.NumParts}
		if err := runLiveMode(factory, gen, *liveTxns, *seed, files); err != nil {
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
	start := time.Now()
	res, err := sim.Run(cfg, simOpts...)
	elapsed := time.Since(start)
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "trace:", cerr)
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

// chooseWorkload builds the -workload generator and the partition count
// of the machine it runs on. An input the generator could not draw from
// — fewer partitions than a transaction binds distinct ones — is an error
// naming the flag, not a panic at the first arrival.
func chooseWorkload(name, pattern string, numParts, numHots int, sigma float64) (workload.Generator, int, error) {
	hot := workload.HotSetLayout{NumReadOnly: 8, NumHots: numHots}
	switch {
	case (name == "exp1" || name == "exp4") && numParts < 2:
		return nil, 0, fmt.Errorf("-numparts %d: %s binds 2 distinct partitions per transaction, need at least 2", numParts, name)
	case (name == "exp2" || name == "exp3") && numHots < 2:
		return nil, 0, fmt.Errorf("-numhots %d: %s binds 2 distinct hot partitions per transaction, need at least 2", numHots, name)
	case name == "exp4" && !(sigma >= 0 && sigma <= math.MaxFloat64):
		return nil, 0, fmt.Errorf("-sigma %g: need a finite non-negative standard deviation", sigma)
	}
	switch name {
	case "exp1":
		return workload.Experiment1(numParts), numParts, nil
	case "exp2":
		return workload.Experiment2(hot), hot.NumParts(), nil
	case "exp3":
		return workload.Experiment3(hot), hot.NumParts(), nil
	case "exp4":
		return workload.WithDeclarationError(workload.Experiment1(numParts), sigma), numParts, nil
	case "custom":
		if pattern == "" {
			return nil, 0, fmt.Errorf("-workload custom needs -pattern")
		}
		pat, err := txn.ParsePattern("custom", pattern)
		if err != nil {
			return nil, 0, fmt.Errorf("-pattern: %w", err)
		}
		if vars := len(pat.Vars()); vars > numParts {
			return nil, 0, fmt.Errorf("-numparts %d: -pattern binds %d variables to distinct partitions, need at least %d", numParts, vars, vars)
		}
		return workload.UniformPattern(pat, numParts), numParts, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
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

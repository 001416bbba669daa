// Command batbench regenerates the paper's evaluation section: every
// figure (6–10) and the Table 1 parameter listing.
//
// Examples:
//
//	batbench -table1
//	batbench -fig 6                 # Experiment 1, response-time curves
//	batbench -all                   # everything (the full grid; slow)
//	batbench -all -parallel 8       # same bytes, 8 grid cells at a time
//	batbench -fig 8 -quick          # reduced horizon for a fast preview
//	batbench -fig 7 -csv out.csv    # also dump the sweep as CSV
//	batbench -fig 6 -trace t.jsonl -metrics   # structured trace + summary
//
// Grid cells fan out across -parallel workers (default: every core);
// results land in pre-indexed slots and trace/metrics sinks are merged
// in grid order, so stdout, CSV and JSONL output are byte-identical
// regardless of parallelism. Progress and ETA go to stderr only.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"batsched/internal/event"
	"batsched/internal/experiments"
	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/obs"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 6, 7, 8, 9, 10 (comma separated)")
		all      = flag.Bool("all", false, "regenerate every figure")
		ablation = flag.String("ablation", "", "ablation to run: ksweep, placement, controlcost, keeptime, retrydelay, all")
		mixed    = flag.Bool("mixed", false, "run the mixed short-transaction/BAT experiment")
		table1   = flag.Bool("table1", false, "print the effective Table 1 parameters")
		horizon  = flag.Int64("horizon", 2_000_000, "simulated clocks per run (paper: 2,000,000)")
		seed     = flag.Int64("seed", 1990, "base random seed")
		parallel = flag.Int("parallel", 0, "grid-cell worker pool size (0 = NumCPU); output is byte-identical at every setting")
		rt       = flag.Float64("rt", 70, "response-time comparison target in seconds")
		quick    = flag.Bool("quick", false, "reduced horizon (400k clocks unless -horizon is given) and sparser sweep")
		lambdas  = flag.String("lambdas", "", "comma-separated arrival-rate sweep override")
		csvOut   = flag.String("csv", "", "write raw sweep data as CSV to this file (single-figure mode)")
		reps     = flag.Int("reps", 1, "replicate seeds per grid cell (metrics averaged)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		trace    = flag.String("trace", "", "write a structured JSONL trace of every run to this file ('-' = stdout)")
		metrics  = flag.Bool("metrics", false, "print per-scheduler decision counts and latency histograms after the runs")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		abortRate   = flag.Float64("abortrate", 0, "fraction of transactions killed mid-run by the fault injector")
		crashNodes  = flag.Int("crashnodes", 0, "crash this many data nodes per run (deterministic in -faultseed; at least one node survives)")
		crashWindow = flag.Int64("crashwindow", 0, "clocks within which injected node crashes land (0 = the horizon)")
		faultSeed   = flag.Uint64("faultseed", 0, "fault-injection seed (0 = derive from -seed); parity with batsim")
	)
	flag.Parse()

	defer startProfiles(*cpuprof, *memprof)()

	if *table1 {
		printTable1()
		if *fig == "" && !*all {
			return
		}
	}
	opts := experiments.Options{
		Machine:         machine.DefaultConfig(),
		Horizon:         event.Time(*horizon),
		Seed:            *seed,
		RTTargetSeconds: *rt,
		Replications:    *reps,
	}
	if *quick {
		// An explicit -horizon wins over the quick one.
		horizonSet := false
		flag.Visit(func(f *flag.Flag) { horizonSet = horizonSet || f.Name == "horizon" })
		if !horizonSet {
			opts.Horizon = 400_000
		}
		opts.Lambdas = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if *lambdas != "" {
		opts.Lambdas = nil
		for _, tok := range strings.Split(*lambdas, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -lambdas entry %q: %v\n", tok, err)
				os.Exit(2)
			}
			opts.Lambdas = append(opts.Lambdas, v)
		}
	}
	if !*quiet {
		opts.Progress = progressReporter()
	}

	// Observability: one JSONL sink and/or one metrics aggregate shared
	// by every run of the grid (events carry their scheduler label).
	// Each run emits into private buffers that the harness merges in
	// grid order, so the trace is deterministic at any -parallel value.
	expOpts := []experiments.Option{experiments.WithParallelism(*parallel)}
	if *abortRate != 0 || *crashNodes != 0 { // fault.New rejects a negative or NaN setting
		fseed := *faultSeed
		if fseed == 0 {
			fseed = uint64(*seed)
		}
		inj, err := fault.New(fseed, fault.Config{
			AbortRate:       *abortRate,
			NodeCrashes:     *crashNodes,
			NodeCrashWindow: event.Time(*crashWindow),
		})
		must(err)
		expOpts = append(expOpts, experiments.WithFaults(inj))
	}
	var traceSink *obs.JSONL
	var agg *obs.Metrics
	var observers []obs.Observer
	if *trace == "-" {
		traceSink = obs.NewJSONL(os.Stdout)
	} else if *trace != "" {
		var err error
		traceSink, err = obs.CreateJSONL(*trace)
		must(err)
	}
	if traceSink != nil {
		observers = append(observers, traceSink)
	}
	if *metrics {
		agg = obs.NewMetrics()
		observers = append(observers, agg)
	}
	if len(observers) > 0 {
		expOpts = append(expOpts, experiments.WithTrace(obs.Multi(observers...)))
	}
	finishObs := func() {
		if traceSink != nil {
			must(traceSink.Close())
			if *trace != "-" && !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *trace)
			}
		}
		if agg != nil {
			fmt.Println(agg.Summary())
		}
	}

	if *ablation != "" {
		runAblations(*ablation, opts, expOpts)
		if !*mixed {
			finishObs()
			return
		}
	}
	if *mixed {
		r, err := experiments.RunMixedWorkload(opts, 2.0, 0.8, expOpts...)
		must(err)
		fmt.Println(r.Render())
		finishObs()
		return
	}
	var figs []string
	if *all {
		figs = []string{"6", "7", "8", "9", "10"}
	} else if *fig != "" {
		figs = strings.Split(*fig, ",")
	}
	if len(figs) == 0 {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -fig N, -all, -ablation NAME or -table1 (see -help)")
		os.Exit(2)
	}

	// Figures 6 and 7 share Experiment 1's sweep; run it once.
	var exp1 *experiments.Experiment1Result
	needExp1 := false
	for _, f := range figs {
		if f == "6" || f == "7" {
			needExp1 = true
		}
	}
	start := time.Now()
	if needExp1 {
		var err error
		exp1, err = experiments.RunExperiment1(opts, expOpts...)
		must(err)
	}
	for _, f := range figs {
		switch strings.TrimSpace(f) {
		case "6":
			fmt.Println(exp1.RenderFigure6())
			writeCSV(*csvOut, experiments.CSV(exp1.Sweeps))
		case "7":
			fmt.Println(exp1.RenderFigure7())
			writeCSV(*csvOut, experiments.CSV(exp1.Sweeps))
		case "8":
			r, err := experiments.RunExperiment2(opts, expOpts...)
			must(err)
			fmt.Println(r.RenderFigure8())
			variants := make([]string, len(r.NumHots))
			for i, nh := range r.NumHots {
				variants[i] = fmt.Sprintf("hots=%d", nh)
			}
			writeCSV(*csvOut, experiments.GroupedCSV(variants, r.Sweeps))
		case "9":
			r, err := experiments.RunExperiment3(opts, expOpts...)
			must(err)
			fmt.Println(r.RenderFigure9())
			writeCSV(*csvOut, experiments.CSV(r.Sweeps))
		case "10":
			r, err := experiments.RunExperiment4(opts, nil, expOpts...)
			must(err)
			fmt.Println(r.RenderFigure10())
			variants := make([]string, len(r.Sigmas))
			for i, sg := range r.Sigmas {
				variants[i] = fmt.Sprintf("sigma=%g", sg)
			}
			writeCSV(*csvOut, experiments.GroupedCSV(variants, r.Sweeps))
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
	}
	finishObs()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total wall time %.1fs\n", time.Since(start).Seconds())
	}
}

func runAblations(which string, opts experiments.Options, expOpts []experiments.Option) {
	type ab struct {
		name string
		run  func() (*experiments.AblationResult, error)
	}
	abs := []ab{
		{"ksweep", func() (*experiments.AblationResult, error) { return experiments.RunKSweep(opts, nil, expOpts...) }},
		{"placement", func() (*experiments.AblationResult, error) { return experiments.RunPlacementAblation(opts, expOpts...) }},
		{"controlcost", func() (*experiments.AblationResult, error) {
			return experiments.RunControlCostAblation(opts, nil, expOpts...)
		}},
		{"keeptime", func() (*experiments.AblationResult, error) {
			return experiments.RunKeepTimeAblation(opts, nil, expOpts...)
		}},
		{"retrydelay", func() (*experiments.AblationResult, error) {
			return experiments.RunRetryDelayAblation(opts, nil, expOpts...)
		}},
	}
	ran := false
	for _, a := range abs {
		if which != "all" && which != a.name {
			continue
		}
		ran = true
		r, err := a.run()
		must(err)
		fmt.Println(r.Render())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown ablation %q (want ksweep, placement, controlcost, keeptime, retrydelay, all)\n", which)
		os.Exit(2)
	}
}

func printTable1() {
	c := machine.DefaultConfig()
	fmt.Println("Table 1. Simulation parameters (✓ = verbatim from the paper; see DESIGN.md §4)")
	rows := [][2]string{
		{"NumNodes ✓", fmt.Sprintf("%d data-processing nodes", c.NumNodes)},
		{"NumParts ✓", "16 (Exp1/4); 8 read-only + NumHots (Exp2/3)"},
		{"NumHots ✓", "4/8/16/32 (Exp2); 8 (Exp3)"},
		{"ObjTime ✓", fmt.Sprintf("%v per object (≈60 tracks per disk)", c.ObjTime)},
		{"simulation length ✓", "2,000,000 clocks (1 clock = 1 ms)"},
		{"keeptime ✓", fmt.Sprintf("%v (period of control-saving)", c.Control.KeepTime)},
		{"multiprogramming ✓", "infinite (no admission cap)"},
		{"startuptime", fmt.Sprintf("%v", c.StartupTime)},
		{"committime", fmt.Sprintf("%v", c.CommitTime)},
		{"ddtime", fmt.Sprintf("%v (deadlock/consistency test)", c.Control.DDTime)},
		{"chaintime", fmt.Sprintf("%v (one W recomputation)", c.Control.ChainTime)},
		{"kwtpgtime", fmt.Sprintf("%v (one E(q) evaluation)", c.Control.KWTPGTime)},
		{"retry delay", fmt.Sprintf("%v (delayed/aborted resubmission)", c.RetryDelay)},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %s\n", r[0], r[1])
	}
	fmt.Println()
}

// progressReporter returns a Progress callback printing per-cell
// progress lines with an ETA on stderr — stdout stays byte-identical
// for goldens. A long -all regeneration runs several grids back to
// back; the completion counter restarting signals a new grid, which
// resets the rate estimate.
func progressReporter() func(done, total int) {
	start := time.Now()
	last := 0
	return func(done, total int) {
		if done < last {
			start = time.Now()
		}
		last = done
		if done == total {
			fmt.Fprintf(os.Stderr, "\r  %d/%d cells done (%.1fs)      \n",
				done, total, time.Since(start).Seconds())
			return
		}
		eta := ""
		if elapsed := time.Since(start); done > 0 && elapsed > 0 {
			rem := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			eta = fmt.Sprintf(", ETA %s", rem.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\r  %d/%d cells done%s      ", done, total, eta)
	}
}

// startProfiles begins CPU profiling (if requested) and returns a
// function that stops it and writes the heap profile (if requested).
// Profiles are dropped on error exits — os.Exit skips the deferred stop
// — which matches the usual net/http/pprof-less CLI convention.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		must(err)
		must(pprof.StartCPUProfile(f))
		stop := func() {
			pprof.StopCPUProfile()
			must(f.Close())
			fmt.Fprintf(os.Stderr, "wrote %s\n", cpuPath)
			writeHeapProfile(memPath)
		}
		return stop
	}
	return func() { writeHeapProfile(memPath) }
}

func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	must(err)
	runtime.GC() // settle live objects so the profile reflects steady state
	must(pprof.WriteHeapProfile(f))
	must(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func writeCSV(path, data string) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Command benchmark is the repository's one benchmark: six named
// workloads over the whole stack (scheduler, live controller, WAL,
// storage, simulator), five end-to-end metrics every workload reports,
// and a per-layer budget from a traced pass. BENCHMARK.json at the
// repository root names the command, workloads, metrics and regression
// bounds; README.md in this directory explains them.
//
//	go run ./benchmark                      every workload, both passes
//	go run ./benchmark -workload scan-cold -seed 7 -seconds 10 -trace 0
//
// The last line printed for a workload is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// runLimit bounds one workload's run: a deadlocked scheduler must fail
// the benchmark, not hang it.
const runLimit = 170 * time.Second

type config struct {
	seed    int64
	seconds float64
	trace   string // "0" end-to-end pass, "1" traced pass, "both"
	quick   bool
	dir     string
	spans   io.Writer // nil = spans are not written
}

// summary is one metric of one workload over the repetitions of a run.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Reps   int     `json:"reps"`
}

// result is one workload's run.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	names := fs.String("workload", "", "comma-separated workload names (default: all six)")
	fs.Int64Var(&cfg.seed, "seed", 1990, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per workload and pass; repetitions run until they add up to it")
	fs.StringVar(&cfg.trace, "trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics from the traced pass, both")
	fs.BoolVar(&cfg.quick, "quick", false, "every count divided by 20, one repetition, all checks")
	fs.StringVar(&cfg.dir, "dir", ".bench_data", "directory for WAL and heap files (created, emptied afterwards)")
	out := fs.String("out", "", "also write the results as JSON to this file")
	spans := fs.String("spans", "", "write the traced pass's span records to this file as JSON lines")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and compare end-to-end medians against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", cfg.trace)
		return 2
	}
	var selected []workloadSpec
	if *names == "" {
		selected = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		i := 0
		for i < len(workloads) && workloads[i].name != name {
			i++
		}
		if i == len(workloads) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, workloads[i])
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.Remove(cfg.dir) // succeeds only when this run left it empty
	host := fingerprint(cfg.dir)
	fmt.Fprintf(stdout, "host: %s\n", host)

	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		cfg.spans = f
	}

	code := 0
	var passes [][]result
	for pass := 0; pass < *repeat; pass++ {
		var results []result
		for _, w := range selected {
			watchdog := time.AfterFunc(runLimit, func() {
				fmt.Fprintf(stderr, "benchmark: %s did not finish within %v\n", w.name, runLimit)
				os.Exit(1)
			})
			res, err := runWorkload(w, cfg)
			watchdog.Stop()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			report(stdout, res, cfg.trace)
			if !res.Correct {
				code = 1
			}
			results = append(results, res)
		}
		passes = append(passes, results)
	}
	if *repeat > 1 && !compare(stdout, passes) {
		code = 1
	}
	if *out != "" {
		doc := struct {
			Host   string     `json:"host"`
			Seed   int64      `json:"seed"`
			Quick  bool       `json:"quick"`
			Passes [][]result `json:"passes"`
		}{host, cfg.seed, cfg.quick, passes}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// fingerprint describes what the numbers were measured on.
func fingerprint(dir string) string {
	return fmt.Sprintf("%d cores, GOMAXPROCS %d, %s %s/%s, data dir on %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, filesystemOf(dir))
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}

// runWorkload runs repetitions of w until they add up to cfg.seconds of
// measured time per pass, and folds them into medians. End-to-end
// metrics and the layers' own counters come from plain repetitions
// only; a traced repetition contributes its span metrics.
func runWorkload(w workloadSpec, cfg config) (result, error) {
	res := result{Workload: w.name, Metrics: map[string]summary{}}
	perRep := map[string][]float64{}
	add := func(v values) {
		for name, x := range v {
			perRep[name] = append(perRep[name], x)
		}
	}
	simReps := 0
	one := func(mode repMode) (*rep, error) {
		mode.quick = cfg.quick
		var r *rep
		if w.live == nil {
			// A traced repetition re-runs the streams of the plain one
			// before it, so that the two can be compared.
			if !mode.traced || simReps == 0 {
				simReps++
			}
			r = simRep(cfg.seed, simReps-1, mode)
		} else {
			var err error
			if r, err = liveRep(w.live, cfg.dir, cfg.seed, mode); err != nil {
				return nil, err
			}
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
		return r, nil
	}

	var plain *rep // the latest plain repetition
	if cfg.trace != "1" {
		for measured := 0.0; measured < cfg.seconds; measured += plain.timedS {
			var err error
			if plain, err = one(repMode{}); err != nil {
				return res, err
			}
			add(plain.vals)
			if cfg.quick {
				break
			}
		}
	}
	if cfg.trace != "0" {
		for measured := 0.0; measured < cfg.seconds; {
			if cfg.trace == "1" {
				var err error
				if plain, err = one(repMode{}); err != nil {
					return res, err
				}
				add(plain.vals)
				measured += plain.timedS
			}
			traced, err := one(repMode{traced: true})
			if err != nil {
				return res, err
			}
			measured += traced.timedS
			traced.trace["bench.trace_overhead_pct"] = overheadPct(plain, traced)
			add(traced.trace)
			if cfg.spans != nil && traced.spans != nil {
				if err := traced.spans.writeSpans(cfg.spans, w.name); err != nil {
					return res, err
				}
			}
			if cfg.quick || cfg.trace == "both" {
				break
			}
		}
		extras := values{}
		if w.live != nil && w.live.shards16 {
			r, err := one(repMode{shards: 16})
			if err != nil {
				return res, err
			}
			extras["live.txn_per_s_shards16"] = r.vals["txn_per_s"]
		}
		if w.live != nil && w.live.obsCost {
			r, err := one(repMode{observer: true})
			if err != nil {
				return res, err
			}
			extras["obs.metrics_overhead_pct"] = overheadPct(plain, r)
		}
		if err := kernelProbes(extras, cfg.dir, cfg.quick); err != nil {
			return res, err
		}
		add(extras)
	}

	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			vs := perRep[m.name]
			if len(vs) == 0 {
				vs = []float64{0} // layer not exercised by this workload
			}
			res.Metrics[m.name] = summarize(m.unit, vs)
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, nil
}

// overheadPct is how much slower, in percent of whole-region
// throughput, with ran than base.
func overheadPct(base, with *rep) float64 {
	const raw = "bench.raw_txn_per_s"
	if with.vals[raw] == 0 {
		return 0 // nothing committed: already reported as a problem
	}
	return 100 * (base.vals[raw]/with.vals[raw] - 1)
}

func summarize(unit string, vs []float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return summary{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Reps: len(s)}
}

// quantile reads the q-quantile off sorted data, interpolating between
// closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// report prints one workload: a table of every metric of the passes
// that ran, then the one-line JSON object the driver reads.
func report(w io.Writer, res result, trace string) {
	var lists [][]metric
	if trace != "1" {
		lists = append(lists, endToEnd)
	}
	if trace != "0" {
		lists = append(lists, perLayer)
	}
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\treps")
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]entry{}
	for _, list := range lists {
		for _, m := range list {
			s := res.Metrics[m.name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", m.name, s.Unit, s.Median, s.Q1, s.Q3, s.Reps)
			metrics[m.name] = entry{s.Median, s.Unit}
		}
	}
	tw.Flush()
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}) // plain values: Marshal cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// compare prints, for every workload and end-to-end metric, how far the
// later passes' medians are from the first pass's, against the metric's
// bound. It reports whether every pair agrees within its bound.
func compare(w io.Writer, passes [][]result) bool {
	ok := true
	fmt.Fprintf(w, "\n== repeatability: pass 1 against each later pass\n")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpass\tfirst\tthis\tdiff\tbound\t")
	for p := 1; p < len(passes); p++ {
		for i, res := range passes[p] {
			for _, m := range endToEnd {
				a, b := passes[0][i].Metrics[m.name].Median, res.Metrics[m.name].Median
				diff := math.Abs(b-a) / a
				verdict := ""
				if diff > m.bound {
					verdict, ok = "EXCEEDS", false
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n",
					res.Workload, m.name, p+1, a, b, 100*diff, 100*m.bound, verdict)
			}
		}
	}
	tw.Flush()
	return ok
}

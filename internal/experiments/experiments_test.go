package experiments

import (
	"reflect"
	"strings"
	"testing"

	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/sim"
	"batsched/internal/stats"
)

// quickOpts keeps harness tests fast: short horizon, sparse sweep.
func quickOpts() Options {
	return Options{
		Machine:         machine.DefaultConfig(),
		Horizon:         120_000,
		Seed:            7,
		Lambdas:         []float64{0.2, 0.6},
		RTTargetSeconds: 70,
	}
}

func TestRunExperiment1Quick(t *testing.T) {
	var gotProgress bool
	o := quickOpts()
	o.Progress = func(done, total int) {
		gotProgress = true
		if done > total {
			t.Errorf("progress %d/%d", done, total)
		}
	}
	r, err := RunExperiment1(o)
	if err != nil {
		t.Fatal(err)
	}
	if !gotProgress {
		t.Error("no progress callbacks")
	}
	if len(r.Sweeps) != 5 {
		t.Fatalf("want 5 schedulers, got %d", len(r.Sweeps))
	}
	labels := map[string]bool{}
	for _, s := range r.Sweeps {
		labels[s.Label] = true
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", s.Label, len(s.Points))
		}
		if s.Points[0].Lambda >= s.Points[1].Lambda {
			t.Errorf("%s: points not sorted by lambda", s.Label)
		}
		for _, p := range s.Points {
			if p.Result.Completed == 0 {
				t.Errorf("%s @ %g: no completions", s.Label, p.Lambda)
			}
		}
	}
	for _, want := range []string{"NODC", "ASL", "CHAIN", "K2", "C2PL"} {
		if !labels[want] {
			t.Errorf("missing scheduler %s", want)
		}
	}
	// Rendering should mention each scheduler and the figure titles.
	f6 := r.RenderFigure6()
	f7 := r.RenderFigure7()
	if !strings.Contains(f6, "Figure 6") || !strings.Contains(f7, "Figure 7") {
		t.Error("figure titles missing")
	}
	if !strings.Contains(f7, "useful util") {
		t.Error("utilization table missing from Figure 7")
	}
}

func TestPairedSeeds(t *testing.T) {
	// The same seed is used for every scheduler at the same lambda, so
	// the arrival counts must be identical across schedulers.
	o := quickOpts()
	r, err := RunExperiment1(o)
	if err != nil {
		t.Fatal(err)
	}
	for li := range o.Lambdas {
		arrived := r.Sweeps[0].Points[li].Result.Arrived
		for _, s := range r.Sweeps[1:] {
			if s.Points[li].Result.Arrived != arrived {
				t.Errorf("λ=%g: %s saw %d arrivals, %s saw %d — seeds not paired",
					o.Lambdas[li], r.Sweeps[0].Label, arrived,
					s.Label, s.Points[li].Result.Arrived)
			}
		}
	}
}

func TestRunExperiment2Quick(t *testing.T) {
	o := quickOpts()
	r, err := RunExperiment2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NumHots) != 4 {
		t.Fatalf("NumHots = %v", r.NumHots)
	}
	for label, tps := range r.TPS {
		if len(tps) != 4 {
			t.Errorf("%s has %d points", label, len(tps))
		}
		for i, v := range tps {
			if v < 0 {
				t.Errorf("%s @ hots=%d: negative TPS %g", label, r.NumHots[i], v)
			}
		}
	}
	out := r.RenderFigure8()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "hots=32") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestRunExperiment3Quick(t *testing.T) {
	o := quickOpts()
	r, err := RunExperiment3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweeps) != 4 {
		t.Fatalf("want 4 schedulers, got %d", len(r.Sweeps))
	}
	if out := r.RenderFigure9(); !strings.Contains(out, "Figure 9") {
		t.Error("figure title missing")
	}
}

func TestRunExperiment4Quick(t *testing.T) {
	o := quickOpts()
	r, err := RunExperiment4(o, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sigmas) != 2 {
		t.Fatalf("sigmas = %v", r.Sigmas)
	}
	for _, want := range []string{"CHAIN", "K2", "C2PL", "CHAIN-C2PL", "K2-C2PL"} {
		if _, ok := r.TPS[want]; !ok {
			t.Errorf("missing scheduler %s", want)
		}
	}
	if out := r.RenderFigure10(); !strings.Contains(out, "Figure 10") {
		t.Error("figure title missing")
	}
}

func TestCSV(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunExperiment3(o)
	if err != nil {
		t.Fatal(err)
	}
	csv := CSV(r.Sweeps)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+4 { // header + 4 schedulers × 1 lambda
		t.Fatalf("csv has %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "scheduler,lambda,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Machine.NumNodes != 8 || o.Horizon != 2_000_000 || o.RTTargetSeconds != 70 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestReplications(t *testing.T) {
	o := quickOpts()
	o.Replications = 3
	o.Lambdas = []float64{0.4}
	r, err := RunExperiment3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Sweeps {
		p := s.Points[0]
		if len(p.Replicates) != 3 {
			t.Fatalf("%s: %d replicates, want 3", s.Label, len(p.Replicates))
		}
		if p.TPSStd < 0 {
			t.Errorf("%s: negative TPS std", s.Label)
		}
		// The aggregate throughput is the mean of the replicates'.
		var sum float64
		for _, rep := range p.Replicates {
			sum += rep.Throughput
		}
		if got, want := p.Result.Throughput, sum/3; mathAbs(got-want) > 1e-9 {
			t.Errorf("%s: aggregate TPS %g, want %g", s.Label, got, want)
		}
		if p.Result.Completed == 0 {
			t.Errorf("%s: no completions", s.Label)
		}
		// Weighted mean RT lies within the replicates' range.
		lo, hi := p.Replicates[0].MeanRT, p.Replicates[0].MeanRT
		for _, rep := range p.Replicates {
			if rep.MeanRT < lo {
				lo = rep.MeanRT
			}
			if rep.MeanRT > hi {
				hi = rep.MeanRT
			}
		}
		if p.Result.MeanRT < lo-1e-9 || p.Result.MeanRT > hi+1e-9 {
			t.Errorf("%s: aggregate RT %g outside [%g,%g]", s.Label, p.Result.MeanRT, lo, hi)
		}
	}
}

// TestAggregateMatchesReplicates runs Experiment 3 with three replicates
// under an abort-rate injector and checks every integer field of each
// aggregate against its replicates: the maxima take the maximum, the
// horizon is shared, and every other count is the replicates' sum. A
// Result field added later without an aggregation rule fails here. The
// tail percentiles are the replicates' maximum.
func TestAggregateMatchesReplicates(t *testing.T) {
	o := quickOpts()
	o.Replications = 3
	o.Lambdas = []float64{0.6}
	inj, err := fault.New(11, fault.Config{AbortRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunExperiment3(o, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	maxed := map[string]bool{"MaxLive": true, "LastCompletion": true}
	injected := 0
	for _, s := range r.Sweeps {
		p := s.Points[0]
		agg := reflect.ValueOf(*p.Result)
		for i := 0; i < agg.NumField(); i++ {
			f := agg.Type().Field(i)
			if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
				continue
			}
			var sum, hi int64
			for _, rep := range p.Replicates {
				v := reflect.ValueOf(*rep).Field(i).Int()
				sum, hi = sum+v, max(hi, v)
			}
			want := sum
			switch {
			case f.Name == "Horizon":
				want = int64(p.Replicates[0].Horizon)
			case maxed[f.Name]:
				want = hi
			}
			if got := agg.Field(i).Int(); got != want {
				t.Errorf("%s: aggregate %s = %d, want %d", s.Label, f.Name, got, want)
			}
		}
		var p95, p99, maxRT float64
		for _, rep := range p.Replicates {
			p95, p99, maxRT = max(p95, rep.P95RT), max(p99, rep.P99RT), max(maxRT, rep.MaxRT)
		}
		if a := p.Result; a.P95RT != p95 || a.P99RT != p99 || a.MaxRT != maxRT {
			t.Errorf("%s: tail %g/%g/%g, want the replicates' maxima %g/%g/%g",
				s.Label, a.P95RT, a.P99RT, a.MaxRT, p95, p99, maxRT)
		}
		if a := p.Result; a.Arrived < a.Completed+a.InjectedAborts+a.LiveAtEnd {
			t.Errorf("%s: %d arrived < %d completed + %d injected + %d live",
				s.Label, a.Arrived, a.Completed, a.InjectedAborts, a.LiveAtEnd)
		}
		injected += p.Result.InjectedAborts
	}
	if injected == 0 {
		t.Fatal("the injector aborted nothing; the counters were not exercised")
	}
}

// TestAggregatePoolsMoments checks the weighted statistics against
// direct computation: MeanRT and StdRT over the union of the replicates'
// measured response times.
func TestAggregatePoolsMoments(t *testing.T) {
	samples := [][]float64{{1, 2, 3, 10}, {4, 4}, {7}, {}}
	var all stats.Welford
	var reps []*sim.Result
	for _, xs := range samples {
		var w stats.Welford
		for _, x := range xs {
			w.Add(x)
			all.Add(x)
		}
		reps = append(reps, &sim.Result{Measured: len(xs), MeanRT: w.Mean(), StdRT: w.Std()})
	}
	got := aggregate(reps)
	if mathAbs(got.MeanRT-all.Mean()) > 1e-12 || mathAbs(got.StdRT-all.Std()) > 1e-12 {
		t.Errorf("mean/std %g/%g, want %g/%g", got.MeanRT, got.StdRT, all.Mean(), all.Std())
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGroupedCSV(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunExperiment4(o, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []string{"sigma=0", "sigma=1"}
	csv := GroupedCSV(variants, r.Sweeps)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// one header + 5 schedulers × 1 lambda × 2 variants
	if len(lines) != 1+10 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "variant,scheduler,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "sigma=0,") {
		t.Errorf("first row = %q", lines[1])
	}
	if strings.Count(csv, "variant,scheduler") != 1 {
		t.Error("repeated header")
	}
}

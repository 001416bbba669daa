package experiments

import (
	"reflect"
	"sort"
	"testing"

	"batsched/internal/obs"
)

// TestRunGridWithMetricsAndTrace runs a tiny Experiment 1 grid with one
// shared sink — a metrics aggregate joined with a trace ring, the form
// batbench -metrics -trace uses — and checks the aggregate is keyed by
// exactly the grid's schedulers, each with every replicate of every point
// folded in, while the ring saw all runs.
func TestRunGridWithMetricsAndTrace(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	agg := obs.NewMetrics()
	o := Options{Horizon: 60_000, Lambdas: []float64{0.4}, Replications: 2}
	res, err := RunExperiment1(o, WithTrace(obs.Multi(agg, ring)))
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, sw := range res.Sweeps {
		labels = append(labels, sw.Label)
		sm := agg.Sched(sw.Label)
		if sm == nil {
			t.Fatalf("%s: metrics keyed %v, want own label", sw.Label, agg.Schedulers())
		}
		// The aggregate Result sums completions across replicates; the
		// shared sink was fed every replicate of every point.
		completed := 0
		for _, p := range sw.Points {
			completed += p.Result.Completed
		}
		if int(sm.Commits) != completed {
			t.Errorf("%s: metrics commits %d, results completed %d", sw.Label, sm.Commits, completed)
		}
	}
	sort.Strings(labels)
	if got := agg.Schedulers(); !reflect.DeepEqual(got, labels) {
		t.Errorf("metrics keyed %v, want the grid's schedulers %v", got, labels)
	}
	// The shared trace observer saw every scheduler of the grid.
	seen := map[string]bool{}
	for _, e := range ring.Events() {
		seen[e.Sched] = true
	}
	for _, l := range labels {
		if !seen[l] {
			t.Errorf("shared trace sink has no events from %s (saw %v)", l, seen)
		}
	}
}

// TestRunGridWithoutOptionsUnchanged: the default path attaches nothing —
// no trace buffer, no simulator option — and still runs the grid.
func TestRunGridWithoutOptionsUnchanged(t *testing.T) {
	if trace, simOpts := buildRunConfig(nil).forJob(); trace != nil || len(simOpts) != 0 {
		t.Fatalf("default job carries trace %v and %d simulator options", trace, len(simOpts))
	}
	o := Options{Horizon: 40_000, Lambdas: []float64{0.3}}
	res, err := RunExperiment1(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range res.Sweeps {
		for _, p := range sw.Points {
			if p.Result == nil || p.Result.Completed == 0 {
				t.Fatalf("%s λ=%g: nothing completed", sw.Label, p.Lambda)
			}
		}
	}
}

// The parallel experiment harness is the heaviest concurrent producer
// of obs events: many simulations emit at once into per-run sinks that
// are merged into shared ones. This test lives with package obs (as an
// external test, to avoid an import cycle) because it enforces the
// per-run sink ownership rule end to end, and `make verify` runs this
// package under -race.
package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"batsched/internal/experiments"
	"batsched/internal/machine"
	"batsched/internal/obs"
)

// TestParallelHarnessRace fans a small grid across 8 workers with a
// shared JSONL sink and a shared metrics aggregate attached. Under -race
// this proves the harness never lets two runs touch a shared sink
// concurrently; the assertions prove the merged output is complete.
func TestParallelHarnessRace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	o := experiments.Options{
		Machine:      machine.DefaultConfig(),
		Horizon:      60_000,
		Seed:         7,
		Lambdas:      []float64{0.3, 0.6},
		Replications: 2,
	}
	agg := obs.NewMetrics()
	r, err := experiments.RunExperiment1(o,
		experiments.WithParallelism(8),
		experiments.WithTrace(obs.Multi(sink, agg)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("shared JSONL sink saw no events")
	}
	// The shared aggregate holds every run of every scheduler's cells.
	for _, sw := range r.Sweeps {
		completed := 0
		for _, p := range sw.Points {
			completed += p.Result.Completed
		}
		if sm := agg.Sched(sw.Label); sm == nil || int(sm.Commits) != completed {
			t.Errorf("%s: shared metrics %+v, want %d commits", sw.Label, sm, completed)
		}
	}
	// The trace contains events from every scheduler of the grid.
	for _, sw := range r.Sweeps {
		if !strings.Contains(buf.String(), `"sched":"`+sw.Label+`"`) {
			t.Errorf("trace has no events from %s", sw.Label)
		}
	}
}

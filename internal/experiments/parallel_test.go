package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// TestParallelDeterminism is the differential determinism test: the
// Experiment 1 grid, two replicates per cell, at -parallel 1 and
// -parallel 8 (see sameAtParallel1And8). Wired into `make verify`
// (plain and -race runs of this package).
func TestParallelDeterminism(t *testing.T) {
	sameAtParallel1And8(t, func(opts ...Option) (any, string) {
		o := quickOpts()
		o.Replications = 2
		r, err := RunExperiment1(o, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.RenderFigure6() + r.RenderFigure7()
	})
}

var durNSField = regexp.MustCompile(`,"dur_ns":\d+`)

// stripDurNS removes the wall-clock dur_ns field from a JSONL trace.
func stripDurNS(trace []byte) []byte {
	return durNSField.ReplaceAll(trace, nil)
}

// sameAtParallel1And8 runs one experiment at -parallel 1 and -parallel
// 8, with a JSONL trace and a metrics aggregate sharing the one sink,
// and checks that the two runs give deeply equal results, identical
// renderings and aggregate simulated-time counters (the aggregate's
// wall-clock histogram is the one part two runs never share), and
// JSONL traces identical beyond dur_ns.
func sameAtParallel1And8(t *testing.T, run func(opts ...Option) (result any, tables string)) {
	t.Helper()
	do := func(parallel int) (any, string, []byte) {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		agg := obs.NewMetrics()
		res, tables := run(WithParallelism(parallel), WithTrace(obs.Multi(sink, agg)))
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		for _, label := range agg.Schedulers() {
			sm := agg.Sched(label)
			tables += fmt.Sprintf("%s: %d admits, %d requests, %d commits, %d aborts, mean rt %v, max graph %v\n",
				label, sm.Admits, sm.Requests, sm.Commits, sm.Aborts, sm.ResponseTime.Mean(), sm.GraphSize.Max())
		}
		return res, tables, buf.Bytes()
	}
	r1, tables1, trace1 := do(1)
	r8, tables8, trace8 := do(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Error("results differ between -parallel 1 and -parallel 8")
	}
	if tables1 != tables8 {
		t.Errorf("rendered tables differ:\n--- 1:\n%s\n--- 8:\n%s", tables1, tables8)
	}
	// dur_ns is the one wall-clock field in a simulation trace (the
	// sched.Observed decision timer); it differs between any two runs,
	// parallel or not. Everything else — event order included — must be
	// byte-identical.
	if n1, n8 := stripDurNS(trace1), stripDurNS(trace8); !bytes.Equal(n1, n8) {
		t.Errorf("JSONL traces differ beyond dur_ns: %d vs %d bytes", len(n1), len(n8))
	}
	if len(trace1) == 0 {
		t.Error("empty trace — the shared sink saw no events")
	}
}

// TestExperiment2ParallelDeterminism covers a grid with a variant axis
// (NumHots): four variants in one pool.
func TestExperiment2ParallelDeterminism(t *testing.T) {
	sameAtParallel1And8(t, func(opts ...Option) (any, string) {
		o := quickOpts()
		o.Lambdas = []float64{0.3, 0.6}
		r, err := RunExperiment2(o, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.RenderFigure8() + GroupedCSV([]string{"4", "8", "16", "32"}, r.Sweeps)
	})
}

// TestPlacementParallelDeterminism covers an ablation grid, whose
// variant hook changes the placement rather than the workload.
func TestPlacementParallelDeterminism(t *testing.T) {
	sameAtParallel1And8(t, func(opts ...Option) (any, string) {
		o := quickOpts()
		o.Lambdas = []float64{0.3, 0.6}
		o.Replications = 2
		r, err := RunPlacementAblation(o, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Render()
	})
}

// TestOnePoolPerExperiment calls every Run* with a Progress callback.
// One worker pool per experiment shows as one count rising by one to
// variants × schedulers × λ × replicates, against a total that never
// changes; a pool per variant or per cell would restart the count.
func TestOnePoolPerExperiment(t *testing.T) {
	base := quickOpts()
	base.Horizon = 30_000
	base.Lambdas = []float64{0.3}
	base.Replications = 2
	discard := func(_ any, err error) error { return err }
	cases := []struct {
		name  string
		cells int
		run   func(Options) error
	}{
		{"Experiment1", 1 * 5 * 1 * 2, func(o Options) error { return discard(RunExperiment1(o)) }},
		{"Experiment2", 4 * 4 * 1 * 2, func(o Options) error { return discard(RunExperiment2(o)) }},
		{"Experiment3", 1 * 4 * 1 * 2, func(o Options) error { return discard(RunExperiment3(o)) }},
		{"Experiment4", 2 * 5 * 1 * 2, func(o Options) error { return discard(RunExperiment4(o, []float64{0, 1})) }},
		{"KSweep", 1 * 2 * 1 * 2, func(o Options) error { return discard(RunKSweep(o, []int{1, 2})) }},
		{"Placement", 2 * 5 * 1 * 2, func(o Options) error { return discard(RunPlacementAblation(o)) }},
		{"ControlCost", 2 * 3 * 1 * 2, func(o Options) error { return discard(RunControlCostAblation(o, []int{1, 10})) }},
		{"KeepTime", 2 * 2 * 1 * 2, func(o Options) error {
			return discard(RunKeepTimeAblation(o, []event.Time{0, 5000}))
		}},
		{"RetryDelay", 2 * 4 * 1 * 2, func(o Options) error {
			return discard(RunRetryDelayAblation(o, []event.Time{250, 1000}))
		}},
		// The mixed table runs one λ and one replicate.
		{"Mixed", 1 * 5 * 1 * 1, func(o Options) error { return discard(RunMixedWorkload(o, 1.0, 0.8)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base
			calls, total := 0, 0
			o.Progress = func(done, n int) {
				calls++
				if done != calls || (total != 0 && n != total) {
					t.Errorf("progress %d/%d after %d calls with total %d", done, n, calls-1, total)
				}
				total = n
			}
			if err := c.run(o); err != nil {
				t.Fatal(err)
			}
			if calls != c.cells || total != c.cells {
				t.Errorf("%d progress calls, total %d; want one pool of %d cells", calls, total, c.cells)
			}
		})
	}
}

// TestMixedParallelDeterminism pins the mixed-workload table, which
// goes through the same runner, to the same guarantee.
func TestMixedParallelDeterminism(t *testing.T) {
	sameAtParallel1And8(t, func(opts ...Option) (any, string) {
		r, err := RunMixedWorkload(quickOpts(), 2.0, 0.8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Render()
	})
}

// TestOrderedFlushOutOfOrder exercises the flusher directly: buffers
// completing in reverse order must still be delivered in job order.
func TestOrderedFlushOutOfOrder(t *testing.T) {
	ring := obs.NewRing(16)
	f := newOrderedFlush(ring, 3)
	mk := func(job int) *capture {
		c := &capture{}
		c.Observe(obs.Event{Kind: obs.KindAdmit, Txn: txn.ID(1000 + job)})
		return c
	}
	f.complete(2, mk(2))
	if got := len(ring.Events()); got != 0 {
		t.Fatalf("job 2 flushed before jobs 0-1: %d events", got)
	}
	f.complete(0, mk(0))
	if got := len(ring.Events()); got != 1 {
		t.Fatalf("after job 0: %d events, want 1", got)
	}
	f.complete(1, nil) // a job without a trace buffer still advances the cursor
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("after all jobs: %d events, want 2", len(evs))
	}
	if evs[0].Txn != 1000 || evs[1].Txn != 1002 {
		t.Errorf("events out of order: %v then %v", evs[0].Txn, evs[1].Txn)
	}
	// Completing with no shared observer must be a safe no-op.
	var nilFlush *orderedFlush
	nilFlush.complete(0, mk(0))
}

package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"batsched/internal/obs"
	"batsched/internal/txn"
)

// runSmokeGrid runs the Experiment-1 smoke grid at the given
// parallelism with a JSONL trace and a metrics aggregate sharing the one
// sink, returning the result, the rendered figure tables followed by the
// aggregate's simulated-time counters (its wall-clock histogram is the
// one part two runs never share), and the raw trace bytes.
func runSmokeGrid(t *testing.T, parallel int) (*Experiment1Result, string, []byte) {
	t.Helper()
	o := quickOpts()
	o.Replications = 2
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	agg := obs.NewMetrics()
	r, err := RunExperiment1(o,
		WithParallelism(parallel), WithTrace(obs.Multi(sink, agg)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tables := r.RenderFigure6() + r.RenderFigure7()
	for _, label := range agg.Schedulers() {
		sm := agg.Sched(label)
		tables += fmt.Sprintf("%s: %d admits, %d requests, %d commits, %d aborts, mean rt %v, max graph %v\n",
			label, sm.Admits, sm.Requests, sm.Commits, sm.Aborts, sm.ResponseTime.Mean(), sm.GraphSize.Max())
	}
	return r, tables, buf.Bytes()
}

// TestParallelDeterminism is the differential determinism test: the
// same grid at -parallel 1 and -parallel 8 must produce deeply equal
// Result structs, byte-identical rendered sweep tables, and a
// byte-identical JSONL trace. Wired into `make verify` (plain and
// -race runs of this package).
func TestParallelDeterminism(t *testing.T) {
	r1, tables1, trace1 := runSmokeGrid(t, 1)
	r8, tables8, trace8 := runSmokeGrid(t, 8)

	if tables1 != tables8 {
		t.Errorf("rendered tables differ between -parallel 1 and -parallel 8:\n--- 1:\n%s\n--- 8:\n%s",
			tables1, tables8)
	}
	// dur_ns is the one wall-clock field in a simulation trace (the
	// sched.Observed decision timer); it differs between any two runs,
	// parallel or not. Everything else — event order included — must be
	// byte-identical.
	if n1, n8 := stripDurNS(trace1), stripDurNS(trace8); !bytes.Equal(n1, n8) {
		t.Errorf("JSONL traces differ beyond dur_ns: %d bytes at -parallel 1 vs %d at -parallel 8",
			len(n1), len(n8))
	}
	if len(trace1) == 0 {
		t.Error("empty trace — the shared sink saw no events")
	}
	if len(r1.Sweeps) != len(r8.Sweeps) {
		t.Fatalf("sweep counts differ: %d vs %d", len(r1.Sweeps), len(r8.Sweeps))
	}
	for i := range r1.Sweeps {
		s1, s8 := r1.Sweeps[i], r8.Sweeps[i]
		if s1.Label != s8.Label {
			t.Fatalf("sweep %d label %q vs %q", i, s1.Label, s8.Label)
		}
		for j := range s1.Points {
			p1, p8 := s1.Points[j], s8.Points[j]
			if !reflect.DeepEqual(p1.Result, p8.Result) {
				t.Errorf("%s λ=%g: aggregate Result differs across parallelism",
					s1.Label, p1.Lambda)
			}
			if !reflect.DeepEqual(p1.Replicates, p8.Replicates) {
				t.Errorf("%s λ=%g: replicate Results differ across parallelism",
					s1.Label, p1.Lambda)
			}
			if p1.TPSStd != p8.TPSStd {
				t.Errorf("%s λ=%g: TPSStd %g vs %g", s1.Label, p1.Lambda, p1.TPSStd, p8.TPSStd)
			}
		}
	}
}

var durNSField = regexp.MustCompile(`,"dur_ns":\d+`)

// stripDurNS removes the wall-clock dur_ns field from a JSONL trace.
func stripDurNS(trace []byte) []byte {
	return durNSField.ReplaceAll(trace, nil)
}

// TestMixedParallelDeterminism pins the mixed-workload table, which
// goes through the same pool, to the same guarantee.
func TestMixedParallelDeterminism(t *testing.T) {
	run := func(parallel int) string {
		o := quickOpts()
		r, err := RunMixedWorkload(o, 2.0, 0.8, WithParallelism(parallel))
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	if r1, r8 := run(1), run(8); r1 != r8 {
		t.Errorf("mixed tables differ:\n--- 1:\n%s\n--- 8:\n%s", r1, r8)
	}
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

package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/obs"
)

// epochSweepOpts bounds the sweep for test speed: a short stream at a
// load where the windows still batch arrivals.
func epochSweepOpts() (Options, []event.Time) {
	o := quickOpts()
	o.Horizon = 2_000_000 // the stream is bounded by maxTxns, not time
	return o, []event.Time{0, 500, 2000, 5000}
}

// TestRunEpochSweep exercises the sweep end to end: one row per window
// in axis order, a batching-free baseline at window 0, real batching at
// the wide windows, and JSON/CSV renderings that carry the same rows.
func TestRunEpochSweep(t *testing.T) {
	o, windows := epochSweepOpts()
	agg := obs.NewMetrics()
	r, err := RunEpochSweep(o, windows, 2.0, 30, WithTrace(agg))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(windows) {
		t.Fatalf("rows %d, want %d", len(r.Rows), len(windows))
	}
	for i, row := range r.Rows {
		if row.Window != windows[i] {
			t.Fatalf("row %d window %v, want %v", i, row.Window, windows[i])
		}
		if row.Completed != 30 {
			t.Errorf("window %v completed %d of 30", row.Window, row.Completed)
		}
		if row.Makespan <= 0 || row.P99RT <= 0 || row.P99RT < row.MeanRT/2 {
			t.Errorf("window %v: implausible makespan %v / p99 %g / mean %g",
				row.Window, row.Makespan, row.P99RT, row.MeanRT)
		}
	}
	if sm := agg.Sched(r.Scheduler); sm == nil || int(sm.Commits) != 30*len(windows) {
		t.Errorf("shared metrics sink: %+v, want %d commits under %s", sm, 30*len(windows), r.Scheduler)
	}
	if base := r.Rows[0]; base.Epochs != 0 || base.MaxBatch != 0 {
		t.Errorf("window-0 baseline batched: %+v", base)
	}
	wide := r.Rows[len(r.Rows)-1]
	if wide.Epochs == 0 || wide.MaxBatch < 2 {
		t.Errorf("window %v never batched two arrivals: %+v", wide.Window, wide)
	}

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back EpochSweepResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back.Rows) != len(windows) || back.Scheduler != "EPOCH" {
		t.Errorf("JSON document: scheduler %q, %d rows", back.Scheduler, len(back.Rows))
	}
	csv := r.CSV()
	if got := strings.Count(csv, "\n"); got != len(windows)+1 {
		t.Errorf("CSV has %d lines, want header + %d rows", got, len(windows))
	}
}

// TestEpochSweepParallelDeterminism extends the guarantee to the
// window axis: the same sweep at -parallel 1 and -parallel 8 must give
// equal results, byte-identical tables, JSON documents and JSONL traces.
func TestEpochSweepParallelDeterminism(t *testing.T) {
	sameAtParallel1And8(t, func(opts ...Option) (any, string) {
		o, windows := epochSweepOpts()
		r, err := RunEpochSweep(o, windows, 2.0, 30, opts...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Render() + r.CSV() + string(data)
	})
}

// TestEpochSweepDefaults pins the zero-value contract: nil windows and
// non-positive lambda/maxTxns select the documented defaults.
func TestEpochSweepDefaults(t *testing.T) {
	if ws := DefaultEpochWindows(); len(ws) < 5 || ws[0] != 0 {
		t.Fatalf("default windows %v", ws)
	}
	o := quickOpts()
	o.Horizon = 4_000_000
	r, err := RunEpochSweep(o, []event.Time{0, 1000}, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lambda != 0.8 || r.MaxTxns != 20 {
		t.Errorf("defaults: lambda %g, maxTxns %d", r.Lambda, r.MaxTxns)
	}
	if _, err := RunEpochSweep(o, []event.Time{-1}, 0, 10); err == nil {
		t.Error("negative window did not error")
	}
}

// TestEpochPaysWhenControlBound is the measured reason EPOCH stays a
// simulator axis: with the control node's decision costs (DDTime,
// ChainTime, KWTPGTime) scaled ×100, per-arrival CHAIN (window 0) is
// control-bound and leaves arrivals uncommitted at the horizon, while a
// 10 s window commits every arrival sooner. What pays is the admission
// test, not W: per arrival, an arrival refused for breaking chain form is
// re-tested at DDTime after every retry delay, and those re-tests
// saturate the control node; a window re-tests it once per flush.
// Scaling ChainTime alone leaves no window ahead, and charging every
// batch member a W recompute still passes, while refused members
// bypassing the window fails every seed (EXPERIMENTS.md). At ×1 and ×10
// no window beats window 0 beyond the seed spread, which is why the live
// controller, whose decisions cost microseconds, admits per arrival.
func TestEpochPaysWhenControlBound(t *testing.T) {
	const arrivals = 300
	for seed := int64(1990); seed <= 1994; seed++ {
		o := Options{Machine: machine.DefaultConfig(), Seed: seed}
		o.Machine.Control.DDTime *= 100
		o.Machine.Control.ChainTime *= 100
		o.Machine.Control.KWTPGTime *= 100
		r, err := RunEpochSweep(o, []event.Time{0, 10000}, 0, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		chain, epoch := r.Rows[0], r.Rows[1]
		if epoch.Completed != arrivals || epoch.MeanRT >= chain.MeanRT {
			t.Errorf("seed %d: window 10000 committed %d of %d at mean RT %.1f s, window 0 %d at %.1f s; "+
				"want all committed and a lower mean RT", seed, epoch.Completed, arrivals, epoch.MeanRT, chain.Completed, chain.MeanRT)
		}
	}
}

package experiments

import (
	"strings"
	"testing"

	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/sim"
	"batsched/internal/workload"
)

func TestRunKSweepQuick(t *testing.T) {
	o := quickOpts()
	r, err := RunKSweep(o, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 2 || r.Variants[0] != "K=1" {
		t.Fatalf("variants = %v", r.Variants)
	}
	tps := r.TPS["K-WTPG"]
	if len(tps) != 2 {
		t.Fatalf("tps = %v", tps)
	}
	if out := r.Render(); !strings.Contains(out, "K sweep") || !strings.Contains(out, "K-WTPG") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRunPlacementAblationQuick(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunPlacementAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 2 {
		t.Fatalf("variants = %v", r.Variants)
	}
	for label, tps := range r.TPS {
		if len(tps) != 2 {
			t.Errorf("%s: %v", label, tps)
		}
	}
	if _, ok := r.TPS["NODC"]; !ok {
		t.Error("NODC missing")
	}
	if r.Extra["NODC"] == nil {
		t.Error("utilization metric missing")
	}
	if out := r.Render(); !strings.Contains(out, "declustered") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRunControlCostAblationQuick(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunControlCostAblation(o, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 2 || r.Variants[1] != "x10" {
		t.Fatalf("variants = %v", r.Variants)
	}
	for _, want := range []string{"CHAIN", "K2", "C2PL"} {
		if _, ok := r.TPS[want]; !ok {
			t.Errorf("missing %s", want)
		}
	}
}

func TestRunKeepTimeAblationQuick(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunKeepTimeAblation(o, []event.Time{0, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 2 {
		t.Fatalf("variants = %v", r.Variants)
	}
	if r.Extra["CHAIN"] == nil {
		t.Error("CN utilization metric missing")
	}
}

func TestRunRetryDelayAblationQuick(t *testing.T) {
	o := quickOpts()
	o.Lambdas = []float64{0.3}
	r, err := RunRetryDelayAblation(o, []event.Time{250, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 2 || r.Variants[0] != "250ms" {
		t.Fatalf("variants = %v", r.Variants)
	}
	for _, want := range []string{"ASL", "CHAIN", "K2", "C2PL"} {
		if _, ok := r.TPS[want]; !ok {
			t.Errorf("missing %s", want)
		}
	}
}

func TestRunMixedWorkloadQuick(t *testing.T) {
	o := quickOpts()
	r, err := RunMixedWorkload(o, 1.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ShortCompleted == 0 {
			t.Errorf("%s: no short transactions completed", row.Scheduler)
		}
		if row.BATCompleted == 0 {
			t.Errorf("%s: no BATs completed", row.Scheduler)
		}
	}
	if out := r.Render(); !strings.Contains(out, "short RT") {
		t.Errorf("render:\n%s", out)
	}
}

// TestRetryDelayPaysWhenControlBound pins where re-testing refused
// arrivals less often pays: with the control node's decision costs
// (DDTime, ChainTime, KWTPGTime) scaled ×100, CHAIN at the default 0.5 s
// retry delay is control-bound. An arrival refused for breaking chain
// form is re-tested at DDTime after every delay, those re-tests saturate
// the control node, and arrivals are left uncommitted at the horizon. A
// 15 s delay commits all of them sooner. At ×1 and ×10 no longer delay
// beats 0.5 s beyond the seed spread (EXPERIMENTS.md, "Control-bound:
// the retry delay").
func TestRetryDelayPaysWhenControlBound(t *testing.T) {
	const arrivals = 300
	for seed := int64(1990); seed <= 1994; seed++ {
		o := Options{Machine: machine.DefaultConfig(), Seed: seed, Lambdas: []float64{0.8}}
		o.Machine.Control.DDTime *= 100
		o.Machine.Control.ChainTime *= 100
		o.Machine.Control.KWTPGTime *= 100
		sets, err := runGrid(o.withDefaults(), variantsOf([]event.Time{500, 15_000}, func(c *sim.Config, d event.Time) {
			c.Workload = workload.Experiment1(c.Machine.NumParts)
			c.MaxTxns = arrivals
			c.Machine.RetryDelay = d
		}), factoriesByName("CHAIN"), nil)
		if err != nil {
			t.Fatal(err)
		}
		short, long := sets[0][0].Points[0].Result, sets[1][0].Points[0].Result
		if long.Completed != arrivals || long.MeanRT >= short.MeanRT {
			t.Errorf("seed %d: delay 15 s committed %d of %d at mean RT %.1f s, 0.5 s %d at %.1f s; "+
				"want all committed and a lower mean RT", seed, long.Completed, arrivals, long.MeanRT, short.Completed, short.MeanRT)
		}
	}
}

package sim

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

func r(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Read, Part: p, Cost: c} }
func w(p txn.PartitionID, c float64) txn.Step { return txn.Step{Mode: txn.Write, Part: p, Cost: c} }

func baseConfig() Config {
	return Config{
		Machine:              machine.DefaultConfig(),
		Scheduler:            sched.C2PLFactory(),
		Workload:             workload.Experiment1(16),
		ArrivalRate:          0.3,
		Horizon:              200_000,
		Seed:                 1,
		CheckSerializability: true,
	}
}

// TestSingleTransactionTiming walks one transaction through the whole
// machine and checks the exact response time against hand computation:
// admit (ddtime 1 + startup 10) + request (1) + 2 objects (2000)
// + request (1) + 1 object (1000) + commit (committime 10) = 3023 ms.
func TestSingleTransactionTiming(t *testing.T) {
	cfg := baseConfig()
	cfg.Workload = &fixed{Label: "one", Txns: []*txn.T{
		txn.New(0, []txn.Step{r(0, 2), w(1, 1)}),
	}}
	cfg.MaxTxns = 1
	cfg.Horizon = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Arrived != 1 {
		t.Fatalf("completed %d / arrived %d, want 1/1", res.Completed, res.Arrived)
	}
	if want := 3.023; math.Abs(res.MeanRT-want) > 1e-9 {
		t.Errorf("MeanRT = %g s, want %g s", res.MeanRT, want)
	}
	if res.RequestBlocks != 0 || res.RequestDelays != 0 {
		t.Errorf("uncontended run had blocks=%d delays=%d", res.RequestBlocks, res.RequestDelays)
	}
}

func TestDeterminism(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2), sched.ASLFactory(),
	} {
		cfg := baseConfig()
		cfg.Scheduler = f
		cfg.Horizon = 100_000
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different results:\n%+v\n%+v", f.Label, a, b)
		}
		cfg.Seed = 2
		c, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) && a.Completed > 0 {
			t.Logf("%s: different seeds produced identical results (possible but suspicious)", f.Label)
		}
	}
}

// TestAllSchedulersProgressAndSerialize runs every scheduler on the
// contended Experiment 1 workload and checks progress plus conflict
// serializability of the executed schedule.
func TestAllSchedulersProgressAndSerialize(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(),
		sched.KWTPGFactory(2), sched.ChainC2PLFactory(), sched.KC2PLFactory(2),
	} {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Scheduler = f
			cfg.ArrivalRate = 0.5
			cfg.Horizon = 300_000
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("serializability or run error: %v", err)
			}
			if !res.SerializabilityChecked {
				t.Error("check did not run")
			}
			if res.Completed == 0 {
				t.Fatal("no transactions completed")
			}
			if res.Completed > res.Arrived {
				t.Errorf("completed %d > arrived %d", res.Completed, res.Arrived)
			}
			if res.MeanRT <= 0 {
				t.Errorf("MeanRT = %g", res.MeanRT)
			}
			if res.MeanNodeUtil <= 0 || res.MeanNodeUtil > 1 {
				t.Errorf("MeanNodeUtil = %g", res.MeanNodeUtil)
			}
			if res.CNUtilization < 0 || res.CNUtilization > 1 {
				t.Errorf("CNUtilization = %g", res.CNUtilization)
			}
		})
	}
}

func TestNODCUpperBound(t *testing.T) {
	cfg := baseConfig()
	cfg.Scheduler = sched.NODCFactory()
	cfg.CheckSerializability = false
	nodc, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := baseConfig()
	c2pl, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if nodc.Completed < c2pl.Completed {
		t.Errorf("NODC completed %d < C2PL %d; NODC must be an upper bound",
			nodc.Completed, c2pl.Completed)
	}
	if nodc.RequestBlocks != 0 || nodc.RequestDelays != 0 || nodc.AdmissionAborts != 0 {
		t.Errorf("NODC reported contention: %+v", nodc)
	}
}

func TestWarmupWindow(t *testing.T) {
	cfg := baseConfig()
	cfg.Horizon = 200_000
	cfg.Warmup = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured > res.Completed {
		t.Errorf("measured %d > completed %d", res.Measured, res.Completed)
	}
	// Throughput is computed over the measurement window only.
	wantWindow := 100.0 // seconds
	if got := float64(res.Measured) / wantWindow; math.Abs(got-res.Throughput) > 1e-9 {
		t.Errorf("Throughput = %g, want %g", res.Throughput, got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.ArrivalRate = math.NaN() },
		func(c *Config) { c.ArrivalRate = math.Inf(1) },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Warmup = c.Horizon },
		func(c *Config) { c.Workload = nil },
		func(c *Config) { c.Scheduler = sched.Factory{} },
		func(c *Config) { c.Machine.NumNodes = 0 },
		func(c *Config) { c.Machine.Control.DDTime = -1 },
		// With free decisions and no retry delay, CHAIN re-tests a refused
		// admission at the same instant for ever; Run must refuse it.
		func(c *Config) {
			c.Scheduler = sched.ChainFactory()
			c.Machine.Control = sched.Costs{}
			c.Machine.RetryDelay = 0
		},
		// A negative explicit arrival lies before the clock's start.
		func(c *Config) { c.ArrivalTimes = []event.Time{-5, 10} },
	}
	for i, mut := range bad {
		cfg := baseConfig()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunRefusesOverflowingDurations: a duration past machine.MaxDuration
// is refused before the run, one case per field. Without the bound,
// math.MaxInt64 as the retry delay, the commit time or the decision cost
// wrapped the clock and panicked in event.Queue.At ("schedule at -…ms
// before now"), a start-up time wrapped CPU + StartupTime negative and
// ran as if start-up were free, and a horizon let an explicit arrival's
// retries wrap.
func TestRunRefusesOverflowingDurations(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"RetryDelay", func(c *Config) { c.Machine.RetryDelay = math.MaxInt64 }},
		{"CommitTime", func(c *Config) { c.Machine.CommitTime = math.MaxInt64 }},
		{"Control.DDTime", func(c *Config) { c.Machine.Control.DDTime = math.MaxInt64 }},
		{"StartupTime", func(c *Config) { c.Machine.StartupTime = math.MaxInt64 }},
		{"Horizon", func(c *Config) {
			c.Horizon = math.MaxInt64
			c.ArrivalTimes = []event.Time{0, 1, math.MaxInt64 - 10}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Scheduler = sched.ASLFactory()
			cfg.ArrivalRate = 0.8
			c.set(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Run panicked: %v", p)
				}
			}()
			res, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted %s = MaxInt64 and committed %d", c.name, res.Completed)
			}
			t.Log(err)
		})
	}
	cfg := baseConfig()
	cfg.Machine.RetryDelay = machine.MaxDuration
	cfg.Horizon = machine.MaxDuration
	cfg.MaxTxns = 20
	if _, err := Run(cfg); err != nil {
		t.Errorf("durations at the bound refused: %v", err)
	}
}

// TestRunRefusesBadDemands: a generator whose second arrival has a NaN
// cost makes Run return an error naming that arrival and its transaction,
// under C2PL, CHAIN and K2, instead of scheduling a demand no scheduler
// can weigh.
func TestRunRefusesBadDemands(t *testing.T) {
	for _, f := range []sched.Factory{sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2)} {
		t.Run(f.Label, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Scheduler = f
			cfg.ArrivalTimes = []event.Time{0, 100, 200}
			cfg.Workload = &fixed{Label: "nan", Txns: []*txn.T{
				txn.New(0, []txn.Step{w(0, 1)}),
				txn.New(0, []txn.Step{w(0, math.NaN())}),
				txn.New(0, []txn.Step{w(1, 1)}),
			}}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Run panicked: %v", p)
				}
			}()
			res, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), "arrival 2") || !strings.Contains(err.Error(), "T2") {
				t.Fatalf("Run = %v, %v; want an error naming arrival 2 (T2)", res, err)
			}
			t.Log(err)
		})
	}
}

// TestChainAtMaxDemand runs two CHAIN transactions that conflict on
// partition 0 with a write of c objects each. At c = 1e308 or 9e307 each
// demand is finite but the chain's path length is +Inf, so Run must
// refuse the first arrival with an error, not reach the optimizer. At
// c = txn.MaxDemand the first transaction's write is planned over the
// two-node chain and granted.
func TestChainAtMaxDemand(t *testing.T) {
	two := func(c float64) *fixed {
		return &fixed{Label: "max", Txns: []*txn.T{
			txn.New(0, []txn.Step{r(1, 1), w(0, c)}),
			txn.New(0, []txn.Step{r(2, 1), w(0, c)}),
		}}
	}
	run := func(c float64, o obs.Observer) (res *Result, err error) {
		cfg := baseConfig()
		cfg.Scheduler = sched.ChainFactory()
		cfg.ArrivalTimes = []event.Time{0, 1}
		cfg.Workload = two(c)
		cfg.Horizon = 20_000
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("c = %g: Run panicked: %v", c, p)
			}
		}()
		return Run(cfg, WithTrace(o))
	}
	for _, c := range []float64{1e308, 9e307} {
		if res, err := run(c, nil); err == nil || !strings.Contains(err.Error(), "arrival 1") {
			t.Errorf("c = %g: Run = %v, %v; want an error naming arrival 1", c, res, err)
		}
	}
	ring := obs.NewRing(256)
	if _, err := run(txn.MaxDemand, ring); err != nil {
		t.Fatal(err)
	}
	admitted, granted := false, false // T2 admitted; then T1's write granted
	for _, e := range ring.Events() {
		if e.Kind != obs.KindDecision || e.Decision != "granted" {
			continue
		}
		switch {
		case e.Op == "admit" && e.Txn == 2:
			admitted = true
		case e.Op == "request" && e.Txn == 1 && e.Step == 1:
			granted = admitted
		}
	}
	if !granted {
		t.Errorf("T1's write at MaxDemand was not granted over the two-node chain")
	}
}

// TestTinyArrivalRate runs rates so small that the first gap overflows
// event.Time (1e-16 TPS) or is +Inf (1e-320, a subnormal): the run ends
// at the horizon with no arrival and no panic.
func TestTinyArrivalRate(t *testing.T) {
	for _, rate := range []float64{1e-16, 1e-320} {
		cfg := baseConfig()
		cfg.ArrivalRate = rate
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if res.Arrived != 0 {
			t.Errorf("rate %g: %d arrivals, want 0", rate, res.Arrived)
		}
	}
}

func TestMaxTxnsCap(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxTxns = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 5 {
		t.Errorf("arrived %d, want 5", res.Arrived)
	}
}

// TestHotSetContention drives the Experiment 2 hot-set workload hard and
// verifies serializable completion for the WTPG schedulers.
func TestHotSetContention(t *testing.T) {
	layout := workload.HotSetLayout{NumReadOnly: 8, NumHots: 4}
	for _, f := range []sched.Factory{sched.ChainFactory(), sched.KWTPGFactory(2)} {
		cfg := baseConfig()
		cfg.Machine.NumParts = layout.NumParts()
		cfg.Workload = workload.Experiment2(layout)
		cfg.Scheduler = f
		cfg.ArrivalRate = 0.6
		cfg.Horizon = 300_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s made no progress on hot set", f.Label)
		}
	}
}

func TestSerialCheckerDetectsCycle(t *testing.T) {
	// T1 reads P0 then T2 writes P0 (T1 < T2), but on P1 the conflicting
	// order is reversed: a cycle — unless T2 never committed, for
	// uncommitted transactions are ignored.
	for _, committed := range [][]txn.ID{{1, 2}, {1}} {
		c := modelcheck.NewHistory()
		c.Grant(1, 0, txn.Read)
		c.Grant(2, 0, txn.Write)
		c.Grant(2, 1, txn.Write)
		c.Grant(1, 1, txn.Write)
		for _, id := range committed {
			c.Commit(id)
		}
		if err := c.Certify(modelcheck.Evidence{}); (err != nil) != (len(committed) == 2) {
			t.Errorf("committed %v: Certify returned %v", committed, err)
		}
	}
}

// TestConservation: arrivals are exactly partitioned into completed,
// still-live and not-yet-admitted transactions at the horizon.
func TestConservation(t *testing.T) {
	for _, rate := range []float64{0.3, 0.9} {
		cfg := baseConfig()
		cfg.ArrivalRate = rate
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		notAdmitted := res.Arrived - res.Admitted
		if notAdmitted < 0 {
			t.Fatalf("admitted %d > arrived %d", res.Admitted, res.Arrived)
		}
		if res.Admitted != res.Completed+res.LiveAtEnd {
			t.Errorf("λ=%g: admitted %d != completed %d + live %d",
				rate, res.Admitted, res.Completed, res.LiveAtEnd)
		}
	}
}

func TestSelfCheckMode(t *testing.T) {
	for _, f := range []sched.Factory{
		sched.ASLFactory(), sched.C2PLFactory(), sched.ChainFactory(), sched.KWTPGFactory(2),
	} {
		cfg := baseConfig()
		cfg.Scheduler = f
		cfg.SelfCheck = true
		cfg.ArrivalRate = 0.5
		cfg.Horizon = 100_000
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", f.Label, err)
		}
	}
}

func TestTailLatencyMetrics(t *testing.T) {
	cfg := baseConfig()
	cfg.ArrivalRate = 0.5
	cfg.Horizon = 200_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.P95RT < res.MeanRT {
		t.Errorf("P95 %g below mean %g", res.P95RT, res.MeanRT)
	}
	if res.MaxRT < res.P95RT {
		t.Errorf("Max %g below P95 %g", res.MaxRT, res.P95RT)
	}
}

// TestSimSteadyStateAllocs pins the event kernel's budget where it is
// spent: the overloaded cell (C2PL at λ = 0.8, where two thirds of the
// arrivals never commit and nearly every control-node job is a refusal
// that comes back after the retry delay). An attempt must allocate
// nothing, so heap objects per control-node job stay far below one —
// what remains is per arrival (the transaction, its state, the oracle's
// history) and amortised growth. One closure per attempt in a retry path
// costs a whole object per job and fails this test, not a benchmark.
func TestSimSteadyStateAllocs(t *testing.T) {
	cfg := baseConfig()
	cfg.ArrivalRate = 0.8
	cfg.Horizon = 600_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.AdmissionDelays + res.AdmissionAborts + res.Admitted +
		res.RequestDelays + res.RequestBlocks + res.Completed
	if res.Completed*2 > res.Arrived || jobs < 100*res.Arrived {
		t.Fatalf("cell is not overloaded: %d of %d arrivals committed, %d control jobs", res.Completed, res.Arrived, jobs)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(jobs)
	t.Logf("%d arrivals, %d control-node jobs, %.3f heap objects per job", res.Arrived, jobs, perJob)
	if perJob > 0.1 {
		t.Errorf("%.3f heap objects per control-node job, want ≤ 0.1: something allocates per attempt", perJob)
	}
}

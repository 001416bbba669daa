package fault

import (
	"math"
	"testing"

	"batsched/internal/event"
	"batsched/internal/txn"
)

func testTxn(id txn.ID) *txn.T {
	return txn.New(id, []txn.Step{
		{Mode: txn.Write, Part: 0, Cost: 10},
		{Mode: txn.Write, Part: 1, Cost: 10},
	})
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if _, ok := in.AbortAt(testTxn(1)); ok {
		t.Error("nil injector aborted")
	}
	if f := in.IOFactor(3); f != 1 {
		t.Errorf("nil IOFactor = %v, want 1", f)
	}
	if in.RefuseAdmit(1, 0) {
		t.Error("nil injector refused admission")
	}
	if _, ok := in.NodeCrash(0, 8, 1000); ok {
		t.Error("nil injector crashed a node")
	}
	if in.Enabled() {
		t.Error("nil injector enabled")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(42, Config{AbortRate: 0.5, SlowIORate: 0.5, AdmitRefusalRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(42, Config{AbortRate: 0.5, SlowIORate: 0.5, AdmitRefusalRate: 0.5})
	for id := txn.ID(1); id <= 200; id++ {
		tx := testTxn(id)
		ao, aok := a.AbortAt(tx)
		bo, bok := b.AbortAt(tx)
		if ao != bo || aok != bok {
			t.Fatalf("AbortAt(%v) differs across identically-seeded injectors", id)
		}
		if a.IOFactor(txn.PartitionID(id)) != b.IOFactor(txn.PartitionID(id)) {
			t.Fatalf("IOFactor(%v) differs", id)
		}
		if a.RefuseAdmit(id, 0) != b.RefuseAdmit(id, 0) {
			t.Fatalf("RefuseAdmit(%v) differs", id)
		}
	}
}

func TestSeedsProduceDifferentSchedules(t *testing.T) {
	a, _ := New(1, Config{AbortRate: 0.5})
	b, _ := New(2, Config{AbortRate: 0.5})
	same := 0
	for id := txn.ID(1); id <= 200; id++ {
		_, aok := a.AbortAt(testTxn(id))
		_, bok := b.AbortAt(testTxn(id))
		if aok == bok {
			same++
		}
	}
	if same == 200 {
		t.Error("seeds 1 and 2 produced identical abort schedules")
	}
}

func TestRatesApproximatelyRespected(t *testing.T) {
	in, _ := New(7, Config{AbortRate: 0.3})
	hit := 0
	const n = 2000
	for id := txn.ID(1); id <= n; id++ {
		if _, ok := in.AbortAt(testTxn(id)); ok {
			hit++
		}
	}
	got := float64(hit) / n
	if got < 0.25 || got > 0.35 {
		t.Errorf("abort rate %.3f, want ≈0.30", got)
	}
}

func TestAbortAtLandsMidRun(t *testing.T) {
	in, _ := New(3, Config{AbortRate: 1})
	for id := txn.ID(1); id <= 100; id++ {
		tx := testTxn(id)
		at, ok := in.AbortAt(tx)
		if !ok {
			t.Fatalf("AbortRate 1 skipped txn %v", id)
		}
		total := tx.DeclaredTotal()
		if at < 0.15*total || at > 0.95*total {
			t.Errorf("abort point %v outside [0.15, 0.95] of total %v", at, total)
		}
	}
}

func TestRefusalBurstEnds(t *testing.T) {
	in, _ := New(11, Config{AdmitRefusalRate: 1, AdmitRefusalBurst: 3})
	id := txn.ID(5)
	for attempt := 0; attempt < 3; attempt++ {
		if !in.RefuseAdmit(id, attempt) {
			t.Fatalf("attempt %d should be refused", attempt)
		}
	}
	if in.RefuseAdmit(id, 3) {
		t.Error("attempt past the burst should be admitted")
	}
}

func TestNodeCrashExactCountAndDeterminism(t *testing.T) {
	const numNodes = 8
	for _, want := range []int{0, 1, 2, 3} {
		a, err := New(77, Config{NodeCrashes: want, NodeCrashWindow: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(77, Config{NodeCrashes: want, NodeCrashWindow: 10_000})
		died := 0
		for n := 0; n < numNodes; n++ {
			at, ok := a.NodeCrash(n, numNodes, 0)
			bt, bok := b.NodeCrash(n, numNodes, 0)
			if at != bt || ok != bok {
				t.Fatalf("NodeCrashes=%d: node %d differs across identically-seeded injectors", want, n)
			}
			if ok {
				died++
				if at < 1 || at > 10_000 {
					t.Errorf("NodeCrashes=%d: node %d crash time %v outside (0, window]", want, n, at)
				}
			}
		}
		if died != want {
			t.Errorf("NodeCrashes=%d: %d nodes died", want, died)
		}
	}
}

func TestNodeCrashClampsToLeaveASurvivor(t *testing.T) {
	in, err := New(5, Config{NodeCrashes: 10, NodeCrashWindow: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const numNodes = 4
	died := 0
	for n := 0; n < numNodes; n++ {
		if _, ok := in.NodeCrash(n, numNodes, 0); ok {
			died++
		}
	}
	if died != numNodes-1 {
		t.Errorf("%d of %d nodes died, want clamp to %d", died, numNodes, numNodes-1)
	}
	// A single-node machine never crashes at all.
	if _, ok := in.NodeCrash(0, 1, 0); ok {
		t.Error("single-node machine crashed its only node")
	}
}

func TestNodeCrashUsesCallerWindowWhenConfigLeavesItZero(t *testing.T) {
	in, err := New(21, Config{NodeCrashes: 4})
	if err != nil {
		t.Fatal(err)
	}
	const window = 100_000
	seen := false
	for n := 0; n < 8; n++ {
		at, ok := in.NodeCrash(n, 8, window)
		if !ok {
			continue
		}
		seen = true
		lo := event.Time(0.15 * window)
		hi := event.Time(0.85 * window)
		if at < lo || at > hi {
			t.Errorf("node %d crash time %v outside [%v, %v]", n, at, lo, hi)
		}
	}
	if !seen {
		t.Fatal("no node crashed")
	}
	// No window at all: the decision is off.
	if _, ok := in.NodeCrash(0, 8, 0); ok {
		t.Error("crash scheduled with no window")
	}
}

func TestValidate(t *testing.T) {
	if _, err := New(0, Config{AbortRate: 1.5}); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := New(0, Config{SlowIOFactor: -1}); err == nil {
		t.Error("negative factor accepted")
	}
	// NaN compares false with everything, so a range check written as
	// "v < 0 || v > 1" lets it through as a rate that injects nothing.
	for _, cfg := range []Config{
		{AbortRate: math.NaN()},
		{SlowIORate: math.NaN()},
		{AdmitRefusalRate: math.NaN()},
		{SlowIOFactor: math.NaN()},
		{SlowIOFactor: math.Inf(1)},
		{SlowIOFactor: math.Inf(-1)},
	} {
		if _, err := New(0, cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	if _, err := New(0, Config{NodeCrashes: -1}); err == nil {
		t.Error("negative NodeCrashes accepted")
	}
	if _, err := New(0, Config{NodeCrashWindow: -1}); err == nil {
		t.Error("negative NodeCrashWindow accepted")
	}
	in, err := New(0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Enabled() {
		t.Error("zero config should be disabled")
	}
	if in.Config().SlowIOFactor != 4 || in.Config().AdmitRefusalBurst != 2 {
		t.Errorf("defaults not applied: %+v", in.Config())
	}
}

func TestKillAtDeterministicAndMidWindow(t *testing.T) {
	if _, ok := (*Injector)(nil).KillAt(1000); ok {
		t.Error("nil injector scheduled a kill")
	}
	if f := (*Injector)(nil).KillFlushFrac(); f != 0 {
		t.Errorf("nil KillFlushFrac = %v, want 0", f)
	}
	off, _ := New(7, Config{})
	if _, ok := off.KillAt(1000); ok {
		t.Error("KillRestart=false scheduled a kill")
	}
	seen := map[event.Time]bool{}
	for seed := uint64(1); seed <= 50; seed++ {
		a, err := New(seed, Config{KillRestart: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Enabled() {
			t.Fatal("KillRestart injector not Enabled")
		}
		const window = event.Time(100000)
		at, ok := a.KillAt(window)
		if !ok {
			t.Fatalf("seed %d: no kill scheduled", seed)
		}
		lo, hi := event.Time(0.15*float64(window)), event.Time(0.85*float64(window))
		if at < lo || at > hi {
			t.Fatalf("seed %d: kill at %v outside mid-window [%v,%v]", seed, at, lo, hi)
		}
		if f := a.KillFlushFrac(); f < 0 || f >= 1 {
			t.Fatalf("seed %d: KillFlushFrac %v outside [0,1)", seed, f)
		}
		b, _ := New(seed, Config{KillRestart: true})
		if bt, _ := b.KillAt(window); bt != at {
			t.Fatalf("seed %d: KillAt differs across identically-seeded injectors", seed)
		}
		if a.KillFlushFrac() != b.KillFlushFrac() {
			t.Fatalf("seed %d: KillFlushFrac differs", seed)
		}
		seen[at] = true
	}
	if len(seen) < 25 {
		t.Errorf("only %d distinct kill points across 50 seeds", len(seen))
	}
	// Config window wins over the caller's.
	c, _ := New(3, Config{KillRestart: true, KillWindow: 500})
	at1, _ := c.KillAt(0)
	at2, _ := c.KillAt(999999)
	if at1 != at2 || at1 > 425 {
		t.Errorf("KillWindow not honored: %v vs %v", at1, at2)
	}
	if _, err := New(1, Config{KillRestart: true, KillWindow: -1}); err == nil {
		t.Error("negative KillWindow validated")
	}
}

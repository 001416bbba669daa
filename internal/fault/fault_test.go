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
	if in.Enabled() {
		t.Error("nil injector enabled")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(42, Config{AbortRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(42, Config{AbortRate: 0.5})
	for id := txn.ID(1); id <= 200; id++ {
		tx := testTxn(id)
		ao, aok := a.AbortAt(tx)
		bo, bok := b.AbortAt(tx)
		if ao != bo || aok != bok {
			t.Fatalf("AbortAt(%v) differs across identically-seeded injectors", id)
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

func TestValidate(t *testing.T) {
	if _, err := New(0, Config{AbortRate: 1.5}); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := New(0, Config{AbortRate: -0.1}); err == nil {
		t.Error("negative rate accepted")
	}
	// NaN compares false with everything, so a range check written as
	// "v < 0 || v > 1" lets it through as a rate that injects nothing.
	if _, err := New(0, Config{AbortRate: math.NaN()}); err == nil {
		t.Error("NaN rate accepted")
	}
	in, err := New(0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Enabled() {
		t.Error("zero config should be disabled")
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
	// No window at all: the decision is off.
	on, _ := New(3, Config{KillRestart: true})
	if _, ok := on.KillAt(0); ok {
		t.Error("kill scheduled with no window")
	}
}

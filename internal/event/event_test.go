package event

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var got []int
	q.At(30, func(Time) { got = append(got, 3) })
	q.At(10, func(Time) { got = append(got, 1) })
	q.At(20, func(Time) { got = append(got, 2) })
	q.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if q.Now() != 30 {
		t.Errorf("Now() = %v, want 30", q.Now())
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	q := NewQueue()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func(Time) { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order at %d: %v", i, v)
		}
	}
}

func TestQueueAfter(t *testing.T) {
	q := NewQueue()
	var at Time
	q.At(100, func(now Time) {
		q.After(50, func(now2 Time) { at = now2 })
	})
	q.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	q := NewQueue()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		q.At(at, func(now Time) { fired = append(fired, now) })
	}
	q.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired %v, want [5 10]", fired)
	}
	if q.Now() != 12 {
		t.Errorf("Now = %v, want horizon 12", q.Now())
	}
	q.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("after second RunUntil fired %v", fired)
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	q := NewQueue()
	q.RunUntil(42)
	if q.Now() != 42 {
		t.Errorf("Now = %v, want 42", q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewQueue()
	q.At(10, func(Time) {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.At(5, func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	q := NewQueue()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	q.At(5, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	q := NewQueue()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	q.After(-1, func(Time) {})
}

// TestFiredCounter: Step fires each scheduled event exactly once and
// reports false once the calendar is drained.
func TestFiredCounter(t *testing.T) {
	q := NewQueue()
	fired, steps := 0, 0
	for i := 0; i < 7; i++ {
		q.At(Time(i), func(Time) { fired++ })
	}
	for q.Step() {
		steps++
	}
	if fired != 7 || steps != 7 {
		t.Errorf("fired %d handlers in %d steps, want 7 and 7", fired, steps)
	}
}

// Property: events fire in nondecreasing time order and equal times fire
// in scheduling order — including events a handler schedules for its own
// clock, which must fire after everything already scheduled there and
// before anything scheduled later. This FIFO tie-break by seq is what
// keeps the simulator's goldens byte-identical across kernels, so it is
// checked against a model: the (at, seq) pairs sorted.
func TestQuickOrdering(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	f := func(times []uint16, spawn []uint8) bool {
		q := NewQueue()
		var fired, scheduled []rec
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			me := rec{at, len(scheduled)}
			scheduled = append(scheduled, me)
			q.At(at, func(now Time) {
				if now != me.at {
					t.Errorf("event for %v fired at %v", me.at, now)
				}
				fired = append(fired, me)
				if depth >= 3 || len(spawn) == 0 {
					return
				}
				// Children land on this clock (delay 0) half the time.
				for k := 0; k < int(spawn[me.seq%len(spawn)]%3); k++ {
					delay := Time(spawn[(me.seq+k)%len(spawn)] % 4 / 2 * 7)
					schedule(now+delay, depth+1)
				}
			})
		}
		for _, raw := range times {
			schedule(Time(raw%50), 0)
		}
		q.Run()
		want := append([]rec(nil), scheduled...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		if len(fired) != len(want) || q.Len() != 0 {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReuseAfterFire: a fired event's heap slot is reused by the next
// schedule and does not pin the fired handler in the meantime.
func TestReuseAfterFire(t *testing.T) {
	q := NewQueue()
	n := 0
	for i := 0; i < 100; i++ {
		q.After(1, func(Time) { n++ })
		if !q.Step() {
			t.Fatal("step failed")
		}
	}
	if n != 100 {
		t.Fatalf("fired %d, want 100", n)
	}
	if q.Len() != 0 || cap(q.heap) != 1 {
		t.Errorf("Len = %d, cap = %d, want 0 and 1 (steady-state reuse)", q.Len(), cap(q.heap))
	}
	if q.heap[:1][0].fn != nil {
		t.Error("vacated heap slot still pins its handler")
	}
}

// TestReuseInsideHandler: the slot an event vacates may be taken by
// events its own handler schedules — the dispatch must have copied
// everything it needs first.
func TestReuseInsideHandler(t *testing.T) {
	q := NewQueue()
	var order []string
	q.After(1, func(now Time) {
		order = append(order, "outer")
		q.After(1, func(Time) { order = append(order, "inner") })
	})
	q.Run()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

// BenchmarkQueueChurn measures steady-state schedule/fire churn on a
// calendar holding a few hundred pending events (the simulator's retry
// population): each iteration schedules one event and fires one, so
// every allocation would be per-event overhead. It stays at 0 allocs/op.
func BenchmarkQueueChurn(b *testing.B) {
	q := NewQueue()
	nop := func(Time) {}
	for i := 0; i < 256; i++ {
		q.After(Time(i%97), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(Time(i%97), nop)
		q.Step()
	}
}

func BenchmarkQueueScheduleFire(b *testing.B) {
	q := NewQueue()
	fn := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.At(q.Now()+Time(i%64), fn)
		if i%8 == 7 {
			for j := 0; j < 8; j++ {
				q.Step()
			}
		}
	}
}

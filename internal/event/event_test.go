package event

import (
	"fmt"
	"math"
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

// TestQuickOrderingLane is TestQuickOrdering with the lane on: At,
// After of the lane's delay and After of other delays mixed, equal
// timestamps across lane and heap (an At on the lane's clock), handlers
// that schedule from inside, and a RunUntil horizon that may fall between
// the lane's head and the heap's top, after which more events are
// scheduled from the horizon's clock. Each prefix RunUntil fires must be
// exactly the events due by the horizon, and the whole firing sequence
// must equal the sorted (at, seq) model.
func TestQuickOrderingLane(t *testing.T) {
	const lane = 7
	type rec struct {
		at  Time
		seq int
	}
	f := func(ops []uint16, spawn []uint8, cut uint8) bool {
		q := NewQueue()
		q.SetLane(lane)
		var fired, scheduled []rec
		var schedule func(op uint16, depth int)
		schedule = func(op uint16, depth int) {
			now := q.Now()
			var at Time
			switch op % 4 {
			case 0: // At anywhere ahead
				at = now + Time(op/4%50)
			case 1, 2: // After(lane), and At on the lane's clock
				at = now + lane
			case 3: // After a delay that is not the lane's
				at = now + Time(op/4%3)
			}
			me := rec{at, len(scheduled)}
			scheduled = append(scheduled, me)
			h := func(now Time) {
				if now != me.at {
					t.Errorf("event for %v fired at %v", me.at, now)
				}
				fired = append(fired, me)
				if depth >= 3 || len(spawn) == 0 {
					return
				}
				for k := 0; k < int(spawn[me.seq%len(spawn)]%3); k++ {
					schedule(uint16(spawn[(me.seq+k)%len(spawn)]), depth+1)
				}
			}
			switch op % 4 {
			case 1:
				q.After(lane, h)
			case 3:
				q.After(at-now, h)
			default:
				q.At(at, h)
			}
		}
		for _, op := range ops {
			schedule(op, 0)
		}
		horizon := Time(cut % 64)
		q.RunUntil(horizon)
		if q.Now() != horizon {
			return false
		}
		due := make(map[int]bool, len(fired))
		for _, r := range fired {
			if r.at > horizon {
				return false
			}
			due[r.seq] = true
		}
		for _, r := range scheduled {
			if !due[r.seq] && r.at <= horizon {
				return false
			}
		}
		for _, op := range ops[:len(ops)/2] {
			schedule(op, 2)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLaneTieAndHorizon spells out the two cases the quick check mixes:
// an At and an After of the lane's delay on one clock fire in scheduling
// order whichever structure holds them, and RunUntil stops between the
// lane's head and the heap's top.
func TestLaneTieAndHorizon(t *testing.T) {
	q := NewQueue()
	q.SetLane(5)
	var got []string
	note := func(s string) Handler { return func(Time) { got = append(got, s) } }
	q.At(5, note("heap1"))
	q.After(5, note("lane1"))
	q.At(5, note("heap2"))
	q.After(5, note("lane2"))
	q.At(9, note("heap9"))
	q.RunUntil(5)
	if want := "[heap1 lane1 heap2 lane2]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	q.After(5, note("lane10")) // at 10: the heap's 9 comes first
	q.RunUntil(9)
	q.RunUntil(9)
	if want := "[heap1 lane1 heap2 lane2 heap9]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if q.Len() != 1 || q.LaneLen() != 1 {
		t.Fatalf("Len %d, lane %d, want the lane's event pending", q.Len(), q.LaneLen())
	}
	q.Run()
	if q.Now() != 10 || got[len(got)-1] != "lane10" {
		t.Fatalf("fired %v, now %v", got, q.Now())
	}
}

// TestSetLane: the lane's delay must be positive and cannot be set while
// lane events wait; a delay that overflows the clock panics in the lane
// as it does in the heap instead of being misordered.
func TestSetLane(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	panics("SetLane(0)", func() { NewQueue().SetLane(0) })
	panics("SetLane(-1)", func() { NewQueue().SetLane(-1) })
	q := NewQueue()
	q.SetLane(3)
	q.After(3, func(Time) {})
	panics("SetLane with a pending lane event", func() { q.SetLane(3) })
	q.Run()
	q.SetLane(4) // the lane is empty: a new delay is safe
	q.At(math.MaxInt64-1, func(Time) {})
	q.Run()
	q.SetLane(math.MaxInt64)
	panics("a lane delay past the end of the clock", func() { q.After(math.MaxInt64, func(Time) {}) })
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

// BenchmarkQueueRetryBacklog has the calendar shape of Figure 10's
// slowest cell (CHAIN, σ = 1, λ = 1.1): about 800 pending retry timers,
// one quantum per data node (8) and one control-node job. Each handler
// re-arms itself, so an iteration fires one event and schedules one.
// "lane" routes the retry delay to the lane, as sim.Run does; "heap" is
// the same traffic through the heap alone. Both stay at 0 allocs/op.
func BenchmarkQueueRetryBacklog(b *testing.B) {
	const retry, quantum, cpu = 500, 1000, 7
	for _, lane := range []bool{true, false} {
		name := "heap"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			q := NewQueue()
			if lane {
				q.SetLane(retry)
			}
			var onRetry, onQuantum, onJob Handler
			onRetry = func(Time) { q.After(retry, onRetry) }
			onQuantum = func(Time) { q.After(quantum, onQuantum) }
			onJob = func(Time) { q.After(cpu, onJob) }
			for i := 0; i < 800; i++ {
				q.At(Time(i*retry/800), onRetry)
			}
			for i := 0; i < 8; i++ {
				q.At(Time(i*quantum/8), onQuantum)
			}
			q.At(0, onJob)
			for i := 0; i < 10_000; i++ { // reach the steady state
				q.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Step()
			}
		})
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

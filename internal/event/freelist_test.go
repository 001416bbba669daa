package event

import "testing"

// TestCancelHandleSurvivesReuse is the generation-check regression
// test: a Handle whose event already fired or was cancelled must stay
// dead even after its backing item is recycled for a new event. The
// generation is the seq a Handle carries — byID is keyed by it, the key
// is deleted before the item is recycled, and reuse stamps a fresh seq,
// so a stale Handle can never reach the recycled item's new event.
func TestCancelHandleSurvivesReuse(t *testing.T) {
	q := NewQueue()
	var fired []string
	h1 := q.After(1, func(Time) { fired = append(fired, "a") })
	if !q.Cancel(h1) {
		t.Fatal("first cancel failed")
	}
	if q.Step() {
		t.Fatal("fired a cancelled event")
	}
	if len(q.free) == 0 {
		t.Fatal("cancelled item was not recycled")
	}
	recycled := q.free[len(q.free)-1]

	// The next schedule must reuse the recycled item.
	h2 := q.After(1, func(Time) { fired = append(fired, "b") })
	if len(q.heap) != 1 || q.heap[0] != recycled {
		t.Fatal("free-list item not reused")
	}
	if h2 == h1 {
		t.Fatal("recycled item kept its old seq — generations collide")
	}
	// The stale handle must not cancel the recycled item's new event.
	if q.Cancel(h1) {
		t.Error("stale handle cancelled a recycled event")
	}
	if q.Cancel(Handle{}) {
		t.Error("zero handle cancelled something")
	}
	if !q.Step() || len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("recycled event did not fire correctly: %v", fired)
	}
	// After firing, its handle is dead too — even though the item is
	// back on the free-list.
	if q.Cancel(h2) {
		t.Error("cancelled an already-fired event")
	}
}

// TestReuseAfterFire: items recycled by a normal fire are reused and
// the handler reference is dropped (no closure pinning).
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
	if len(q.free) != 1 {
		t.Errorf("free-list holds %d items, want 1 (steady-state reuse)", len(q.free))
	}
	if q.free[0].fn != nil {
		t.Error("recycled item still pins its handler")
	}
}

// TestReuseInsideHandler: an item recycled at dispatch may be reused by
// events the running handler schedules — the dispatch must have copied
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

// BenchmarkQueueChurn measures steady-state schedule/cancel/fire churn:
// each iteration schedules two events, cancels one and fires the other,
// so the queue stays near-empty and every allocation is per-event
// overhead. The free-list keeps this at zero allocs/op.
func BenchmarkQueueChurn(b *testing.B) {
	q := NewQueue()
	nop := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(1, nop)
		h := q.After(2, nop)
		q.Cancel(h)
		q.Step()
	}
}

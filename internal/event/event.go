// Package event provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer clocks; the paper's simulation uses
// 1 clock = 1 ms, and the rest of this repository follows that convention.
// Events scheduled for the same clock fire in scheduling order, which makes
// every simulation run a pure function of its inputs and seed.
package event

import "fmt"

// Time is a simulation timestamp in clocks (milliseconds in this repo).
type Time int64

// String formats the time as milliseconds.
func (t Time) String() string { return fmt.Sprintf("%dms", int64(t)) }

// Seconds converts the timestamp to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1000.0 }

// Handler is a callback invoked when an event fires.
type Handler func(now Time)

type item struct {
	at  Time
	seq uint64 // global scheduling order; breaks ties deterministically
	fn  Handler
}

func (a *item) before(b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Queue is a discrete-event calendar: a binary min-heap of item values
// ordered by (at, seq). The zero value is ready to use. Scheduling and
// firing allocate nothing once the heap has grown to the run's peak
// number of pending events. Queue is not safe for concurrent use; a
// simulation is single-threaded.
type Queue struct {
	heap    []item
	now     Time
	nextSeq uint64
}

// NewQueue returns an empty event queue at time 0.
func NewQueue() *Queue { return &Queue{} }

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would violate causality.
func (q *Queue) At(at Time, fn Handler) {
	if fn == nil {
		panic("event: nil handler")
	}
	if at < q.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", at, q.now))
	}
	q.nextSeq++
	it := item{at: at, seq: q.nextSeq, fn: fn}
	// Sift up: move the hole from the new leaf towards the root until its
	// parent fires before it.
	q.heap = append(q.heap, it)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// After schedules fn to run delay clocks from now; a negative delay is a
// schedule in the past.
func (q *Queue) After(delay Time, fn Handler) { q.At(q.now+delay, fn) }

// Step fires the next event. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	h := q.heap
	if len(h) == 0 {
		return false
	}
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item{} // the vacated slot must not pin the handler
	h = h[:n]
	q.heap = h
	// Sift down: move the hole from the root towards the leaves until the
	// displaced last item fires before both children.
	for i := 0; n > 0; {
		child := 2*i + 1
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if child >= n || !h[child].before(&last) {
			h[i] = last
			break
		}
		h[i] = h[child]
		i = child
	}
	// The heap is consistent before the handler runs: the handler may
	// schedule new events.
	q.now = top.at
	top.fn(q.now)
	return true
}

// RunUntil fires events in order until the queue is empty or the next
// event would fire strictly after horizon. The clock is left at the time
// of the last fired event, or at horizon if that is later.
func (q *Queue) RunUntil(horizon Time) {
	for len(q.heap) > 0 && q.heap[0].at <= horizon {
		q.Step()
	}
	if q.now < horizon {
		q.now = horizon
	}
}

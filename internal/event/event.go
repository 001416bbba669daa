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

// stepped, when set, runs after every fired handler with whether the
// event came from the lane: the probe export_test.go installs.
var stepped func(q *Queue, lane bool)

// Queue is a discrete-event calendar: a binary min-heap of item values
// ordered by (at, seq), and beside it an optional FIFO lane for one fixed
// delay (SetLane). A lane event fires at now+delay with now never
// decreasing and seq growing, so the lane is sorted by (at, seq) as it is
// filled, and each step fires the earlier of lane head and heap top: the
// firing order is the same as with the heap alone. The zero value is
// ready to use and has no lane. Scheduling and firing allocate nothing
// once the heap and the lane have grown to the run's peak number of
// pending events. Queue is not safe for concurrent use; a simulation is
// single-threaded.
type Queue struct {
	heap      []item
	lane      Ring[item]
	laneDelay Time // 0: no lane
	now       Time
	nextSeq   uint64
}

// NewQueue returns an empty event queue at time 0, without a lane.
func NewQueue() *Queue { return &Queue{} }

// SetLane routes every later After(delay) into the FIFO lane, where
// scheduling and firing cost O(1) instead of O(log Len). Use it for a
// delay that many pending events share (the simulator's §3.2 retry
// delay). It panics if delay is not positive or the lane holds events:
// the lane is sorted only while all of its events share one delay.
func (q *Queue) SetLane(delay Time) {
	if delay <= 0 || q.lane.n > 0 {
		panic(fmt.Sprintf("event: lane delay %v with %d lane events pending", delay, q.lane.n))
	}
	q.laneDelay = delay
}

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) + q.lane.n }

// stamp checks a schedule of fn for at and numbers it.
func (q *Queue) stamp(at Time, fn Handler) uint64 {
	if fn == nil || at < q.now {
		q.refuse(at, fn)
	}
	q.nextSeq++
	return q.nextSeq
}

// refuse panics on a nil handler or a schedule in the past; a delay that
// overflows the clock wraps to the past. It stays out of line so that
// stamp inlines.
//
//go:noinline
func (q *Queue) refuse(at Time, fn Handler) {
	if fn == nil {
		panic("event: nil handler")
	}
	panic(fmt.Sprintf("event: schedule at %v before now %v", at, q.now))
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would violate causality.
func (q *Queue) At(at Time, fn Handler) {
	it := item{at, q.stamp(at, fn), fn}
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
// schedule in the past. The lane's delay goes to the lane.
func (q *Queue) After(delay Time, fn Handler) {
	if delay != q.laneDelay || delay == 0 {
		q.At(q.now+delay, fn)
		return
	}
	at := q.now + delay
	q.lane.Push(item{at, q.stamp(at, fn), fn})
}

// next reports when the next event fires and whether it is the lane's
// head; ok is false when the queue is empty.
func (q *Queue) next() (at Time, lane, ok bool) {
	if q.lane.n > 0 {
		head := &q.lane.buf[q.lane.head]
		if len(q.heap) == 0 || head.before(&q.heap[0]) {
			return head.at, true, true
		}
	}
	if len(q.heap) == 0 {
		return 0, false, false
	}
	return q.heap[0].at, false, true
}

// Step fires the next event. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	_, lane, ok := q.next()
	if !ok {
		return false
	}
	var it item
	if lane {
		it = q.lane.Pop()
	} else {
		it = q.popHeap()
	}
	// The calendar is consistent before the handler runs: the handler may
	// schedule new events.
	q.now = it.at
	it.fn(q.now)
	if stepped != nil {
		stepped(q, lane)
	}
	return true
}

// RunUntil fires events in order until the queue is empty or the next
// event would fire strictly after horizon. The clock is left at the time
// of the last fired event, or at horizon if that is later.
func (q *Queue) RunUntil(horizon Time) {
	for {
		if at, _, ok := q.next(); !ok || at > horizon {
			break
		}
		q.Step()
	}
	if q.now < horizon {
		q.now = horizon
	}
}

// popHeap removes and returns the heap's top.
func (q *Queue) popHeap() item {
	h := q.heap
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
	return top
}

// Ring is a first-in-first-out queue in a power-of-two ring: it allocates
// only while growing to the peak backlog, where a slice popped with
// s = s[1:] and refilled with append reallocates for ever. The calendar's
// lane is one, and so are the machine's node queues. The zero value is an
// empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of values queued.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		copy(grown[copy(grown, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head; the ring must not be empty. The
// vacated slot is zeroed, so it pins nothing.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	r.buf[r.head] = *new(T)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

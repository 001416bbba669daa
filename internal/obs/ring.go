package obs

import "sync"

// Ring is a fixed-capacity in-memory event buffer: a flight recorder
// that always holds the most recent events. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRing returns a ring buffer holding the last `capacity` events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Observe appends the event, evicting the oldest once full.
func (r *Ring) Observe(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Close does nothing; the buffer stays readable.
func (r *Ring) Close() error { return nil }

// Events returns the buffered events, oldest first, as a fresh slice.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

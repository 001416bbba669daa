package event

// Run fires every event until the queue drains. Programs drive the
// calendar with RunUntil and Step; the tests use this shorthand.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// HeapLen and LaneLen split Len between the heap and the lane.
func (q *Queue) HeapLen() int { return len(q.heap) }
func (q *Queue) LaneLen() int { return q.lane.n }

// ProbeSteps calls f after every fired handler of every queue, with
// whether the event came from the lane, until the returned func is
// called. Tests that use it must not run in parallel.
func ProbeSteps(f func(q *Queue, lane bool)) (restore func()) {
	stepped = f
	return func() { stepped = nil }
}

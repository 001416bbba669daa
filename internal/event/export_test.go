package event

// Run fires every event until the queue drains. Programs drive the
// calendar with RunUntil and Step; the tests use this shorthand.
func (q *Queue) Run() {
	for q.Step() {
	}
}

package machine

import (
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// drain fires every pending event.
func drain(q *event.Queue) {
	for q.Step() {
	}
}

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes != 8 || c.ObjTime != 1000 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestValidate(t *testing.T) {
	// from is DefaultConfig with one field changed.
	from := func(set func(*Config)) Config {
		c := DefaultConfig()
		set(&c)
		return c
	}
	bad := []Config{
		{},
		{NumNodes: 8, NumParts: 0, ObjTime: 1000},
		{NumNodes: 8, NumParts: 16, ObjTime: 0},
		{NumNodes: 8, NumParts: 16, ObjTime: 1000, RetryDelay: -1},
		// A zero retry delay re-submits a refused request at the instant
		// it was refused: with zero control costs time stops.
		from(func(c *Config) { c.RetryDelay = 0 }),
		from(func(c *Config) { c.Control.DDTime = -1 }),
		from(func(c *Config) { c.Control.ChainTime = -1 }),
		from(func(c *Config) { c.Control.KWTPGTime = -1 }),
		from(func(c *Config) { c.Control.KeepTime = -1 }),
		// Past MaxDuration a run's sums could wrap the clock.
		from(func(c *Config) { c.ObjTime = MaxDuration + 1 }),
		from(func(c *Config) { c.StartupTime = MaxDuration + 1 }),
		from(func(c *Config) { c.CommitTime = MaxDuration + 1 }),
		from(func(c *Config) { c.RetryDelay = MaxDuration + 1 }),
		from(func(c *Config) { c.Control.DDTime = MaxDuration + 1 }),
		from(func(c *Config) { c.Control.ChainTime = MaxDuration + 1 }),
		from(func(c *Config) { c.Control.KWTPGTime = MaxDuration + 1 }),
		from(func(c *Config) { c.Control.KeepTime = MaxDuration + 1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := from(func(c *Config) { c.Control = sched.Costs{} }).Validate(); err != nil {
		t.Errorf("zero control costs: %v", err)
	}
	if err := from(func(c *Config) {
		c.ObjTime, c.StartupTime, c.CommitTime, c.RetryDelay = MaxDuration, MaxDuration, MaxDuration, MaxDuration
		c.Control = sched.Costs{DDTime: MaxDuration, ChainTime: MaxDuration, KWTPGTime: MaxDuration, KeepTime: MaxDuration}
	}).Validate(); err != nil {
		t.Errorf("every duration at MaxDuration: %v", err)
	}
}

func TestNodeOf(t *testing.T) {
	c := DefaultConfig()
	for p := txn.PartitionID(0); p < 32; p++ {
		if got := c.NodeOf(p); got != int(p)%8 {
			t.Errorf("NodeOf(%v) = %d", p, got)
		}
	}
}

// testWork is control work of a fixed CPU demand that logs its pickup
// and completion.
type testWork struct {
	cpu    event.Time
	picked func()
	done   func(now event.Time)
}

func (w *testWork) Run(event.Time) event.Time {
	if w.picked != nil {
		w.picked()
	}
	return w.cpu
}

func (w *testWork) Done(now event.Time) {
	if w.done != nil {
		w.done(now)
	}
}

func TestControlNodeFIFOAndOccupancy(t *testing.T) {
	q := event.NewQueue()
	cn := NewControlNode(q)
	var order []int
	var times []event.Time
	mk := func(id int, cpu event.Time) Work {
		return &testWork{cpu: cpu,
			picked: func() { order = append(order, id) },
			done:   func(done event.Time) { times = append(times, done) }}
	}
	q.At(0, func(event.Time) {
		cn.Submit(mk(1, 10))
		cn.Submit(mk(2, 5))
		cn.Submit(mk(3, 0))
		if cn.QueueLen() != 2 {
			t.Errorf("QueueLen = %d, want 2 (one running)", cn.QueueLen())
		}
	})
	drain(q)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	// Completions at 10, 15, 15 (zero-cost work completes immediately
	// after pickup).
	if times[0] != 10 || times[1] != 15 || times[2] != 15 {
		t.Errorf("completion times = %v, want [10 15 15]", times)
	}
	if cn.BusyTime != 15 {
		t.Errorf("BusyTime = %v, want 15", cn.BusyTime)
	}
	if cn.Ops != 3 {
		t.Errorf("Ops = %d, want 3", cn.Ops)
	}
}

func TestControlNodeInterleavedSubmit(t *testing.T) {
	q := event.NewQueue()
	cn := NewControlNode(q)
	var finished []event.Time
	record := func(now event.Time) { finished = append(finished, now) }
	q.At(0, func(event.Time) { cn.Submit(&testWork{cpu: 100, done: record}) })
	// Submitted while CN is busy: must wait.
	q.At(50, func(event.Time) { cn.Submit(&testWork{cpu: 10, done: record}) })
	drain(q)
	if len(finished) != 2 || finished[0] != 100 || finished[1] != 110 {
		t.Errorf("finished = %v, want [100 110]", finished)
	}
}

// TestControlNodeBacklogKeepsOrder: a backlog that grows the ring while
// it is wrapped, fed partly from inside Done, is still served first come
// first served.
func TestControlNodeBacklogKeepsOrder(t *testing.T) {
	q := event.NewQueue()
	cn := NewControlNode(q)
	var order []int
	next := 0
	var submit func()
	submit = func() {
		id := next
		next++
		cn.Submit(&testWork{cpu: 1, done: func(event.Time) {
			order = append(order, id)
			if id%3 == 0 && next < 200 {
				submit()
				submit()
				submit()
				submit()
			}
		}})
	}
	q.At(0, func(event.Time) { submit(); submit(); submit() })
	drain(q)
	if len(order) != next || next < 200 {
		t.Fatalf("served %d of %d", len(order), next)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("job %d served at position %d", id, i)
		}
	}
	if cn.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after drain", cn.QueueLen())
	}
}

func TestDataNodeRoundRobin(t *testing.T) {
	q := event.NewQueue()
	n := NewDataNode(0, q, 10)
	type done struct {
		id txn.ID
		at event.Time
	}
	var stepDone []done
	var quanta []event.Time
	n.OnQuantum = func(j *Job, objects float64, now event.Time) {
		quanta = append(quanta, now)
		if objects != 1 {
			t.Errorf("quantum = %g, want 1", objects)
		}
	}
	n.OnStepDone = func(j *Job, now event.Time) {
		stepDone = append(stepDone, done{j.Txn.ID, now})
	}
	t1 := txn.New(1, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 3}})
	t2 := txn.New(2, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 2}})
	q.At(0, func(event.Time) {
		n.Enqueue(&Job{Txn: t1, Step: 0, Remaining: 3})
		n.Enqueue(&Job{Txn: t2, Step: 0, Remaining: 2})
	})
	drain(q)
	// Round robin: T1@10, T2@20, T1@30, T2@40(done), T1@50(done).
	want := []event.Time{10, 20, 30, 40, 50}
	if len(quanta) != len(want) {
		t.Fatalf("quanta = %v", quanta)
	}
	for i := range want {
		if quanta[i] != want[i] {
			t.Fatalf("quanta = %v, want %v", quanta, want)
		}
	}
	if len(stepDone) != 2 || stepDone[0].id != 2 || stepDone[0].at != 40 ||
		stepDone[1].id != 1 || stepDone[1].at != 50 {
		t.Errorf("stepDone = %v", stepDone)
	}
	if n.BusyTime != 50 {
		t.Errorf("BusyTime = %v, want 50", n.BusyTime)
	}
	if n.Objects != 5 {
		t.Errorf("Objects = %g, want 5", n.Objects)
	}
}

func TestDataNodeFractionalTail(t *testing.T) {
	q := event.NewQueue()
	n := NewDataNode(0, q, 1000)
	var quanta []float64
	var doneAt event.Time
	n.OnQuantum = func(j *Job, objects float64, now event.Time) { quanta = append(quanta, objects) }
	n.OnStepDone = func(j *Job, now event.Time) { doneAt = now }
	t1 := txn.New(1, []txn.Step{{Mode: txn.Write, Part: 0, Cost: 1.2}})
	q.At(0, func(event.Time) { n.Enqueue(&Job{Txn: t1, Step: 0, Remaining: 1.2}) })
	drain(q)
	if len(quanta) != 2 || quanta[0] != 1 || quanta[1] < 0.19 || quanta[1] > 0.21 {
		t.Fatalf("quanta = %v, want [1 0.2]", quanta)
	}
	if doneAt != 1200 {
		t.Errorf("done at %v, want 1200", doneAt)
	}
}

func TestDataNodeZeroCostStep(t *testing.T) {
	q := event.NewQueue()
	n := NewDataNode(0, q, 1000)
	doneCount := 0
	n.OnStepDone = func(j *Job, now event.Time) { doneCount++ }
	t1 := txn.New(1, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 0}})
	q.At(0, func(event.Time) { n.Enqueue(&Job{Txn: t1, Step: 0, Remaining: 0}) })
	drain(q)
	if doneCount != 1 {
		t.Errorf("zero-cost step completed %d times, want 1", doneCount)
	}
	if n.BusyTime != 0 {
		t.Errorf("BusyTime = %v, want 0", n.BusyTime)
	}
}

func TestDataNodeQueueLen(t *testing.T) {
	q := event.NewQueue()
	n := NewDataNode(0, q, 10)
	t1 := txn.New(1, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 2}})
	t2 := txn.New(2, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 1}})
	q.At(0, func(event.Time) {
		n.Enqueue(&Job{Txn: t1, Step: 0, Remaining: 2})
		n.Enqueue(&Job{Txn: t2, Step: 0, Remaining: 1})
		if n.QueueLen() != 2 {
			t.Errorf("QueueLen = %d, want 2", n.QueueLen())
		}
	})
	drain(q)
	if n.QueueLen() != 0 {
		t.Errorf("QueueLen after drain = %d, want 0", n.QueueLen())
	}
}

// pingWork resubmits itself from Done: the steady state of a refused
// request under fixed-delay resubmission, minus the delay.
type pingWork struct {
	cn   *ControlNode
	left int
}

func (w *pingWork) Run(event.Time) event.Time { return 1 }

func (w *pingWork) Done(event.Time) {
	if w.left--; w.left > 0 {
		w.cn.Submit(w)
	}
}

// BenchmarkControlNodePump is one control job through the CN — submit,
// run, completion event, done — with a second job keeping the ring
// non-empty. It stays at 0 allocs/op.
func BenchmarkControlNodePump(b *testing.B) {
	q := event.NewQueue()
	cn := NewControlNode(q)
	cn.Submit(&pingWork{cn: cn, left: b.N/2 + 1})
	cn.Submit(&pingWork{cn: cn, left: b.N - b.N/2})
	b.ReportAllocs()
	b.ResetTimer()
	drain(q)
	if int(cn.Ops) < b.N {
		b.Fatalf("Ops = %d, want ≥ %d", cn.Ops, b.N)
	}
}

// BenchmarkDataNodeQuantum is one quantum of a DN with two resident jobs
// taking turns. It stays at 0 allocs/op.
func BenchmarkDataNodeQuantum(b *testing.B) {
	q := event.NewQueue()
	n := NewDataNode(0, q, 10)
	quanta := 0
	n.OnQuantum = func(*Job, float64, event.Time) { quanta++ }
	t1 := txn.New(1, []txn.Step{{Mode: txn.Read, Part: 0, Cost: 1}})
	n.Enqueue(&Job{Txn: t1, Remaining: float64(b.N/2 + 1)})
	n.Enqueue(&Job{Txn: t1, Remaining: float64(b.N - b.N/2)})
	b.ReportAllocs()
	b.ResetTimer()
	drain(q)
	if quanta < b.N {
		b.Fatalf("quanta = %d, want ≥ %d", quanta, b.N)
	}
}

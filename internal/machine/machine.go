// Package machine models the paper's shared-nothing database machine
// (§4.1, Figure 5): one centralized control node (CN) that runs the
// concurrency control and coordinates two-phase commitment, and NumNodes
// data-processing nodes (DN) that execute bulk operations.
//
// Partitions are placed by node = partition mod NumNodes. A DN executes
// its resident transactions round-robin with a one-object quantum: after
// each object (ObjTime) the running transaction is parked and the next
// waiting one resumes; the finished object is reported to the CN so the
// WTPG weight w(T0→Ti) can be decremented. The CN is a single FIFO
// server: concurrency-control decisions and commit/startup coordination
// occupy it for their CPU demand, one at a time.
package machine

import (
	"fmt"
	"math"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// Config carries the Table 1 machine parameters. Values the paper prints
// only in an unreadable figure are set to plausible defaults and
// documented in DESIGN.md §4.
type Config struct {
	// NumNodes is the number of data-processing nodes (paper: 8).
	NumNodes int
	// NumParts is the number of partitions (16 in Experiments 1 and 4).
	NumParts int
	// ObjTime is the bulk-processing time of one object at a DN
	// (paper: 1 second, ≈60 tracks ≈ 2.5 MB per disk in FDS-R).
	ObjTime event.Time
	// StartupTime is the CN coordination cost of starting a transaction.
	StartupTime event.Time
	// CommitTime is the CN coordination cost of two-phase commitment.
	CommitTime event.Time
	// RetryDelay is the fixed delay after which delayed lock-requests and
	// aborted transactions are resubmitted (§3.2).
	RetryDelay event.Time
	// Control carries the concurrency-control CPU costs (ddtime,
	// chaintime, kwtpgtime) and the §3.4 control-saving period.
	Control sched.Costs
}

// DefaultConfig returns the Table 1 defaults (see DESIGN.md §4 for which
// values are verbatim and which are assumptions).
func DefaultConfig() Config {
	return Config{
		NumNodes:    8,
		NumParts:    16,
		ObjTime:     1000,
		StartupTime: 10,
		CommitTime:  10,
		RetryDelay:  500,
		Control: sched.Costs{
			DDTime:    1,
			ChainTime: 5,
			KWTPGTime: 3,
			KeepTime:  5000,
		},
	}
}

// MaxDuration bounds every duration in Config, and sim.Run bounds its
// horizon by it: 2^40 clocks, about 35 years at 1 ms. A run's clock then
// stays below the horizon plus one timer or one control job, and a
// control job's CPU is a sum of a few of these durations plus KWTPGTime
// once per E(q) evaluation of one request, so every sum and product in
// a run stays below 2^62 — half the point where event.Time wraps
// negative — while one request conflicts with fewer than 2^21 declared
// steps.
const MaxDuration event.Time = 1 << 40

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumNodes <= 0 {
		return fmt.Errorf("machine: NumNodes = %d", c.NumNodes)
	}
	if c.NumParts <= 0 {
		return fmt.Errorf("machine: NumParts = %d", c.NumParts)
	}
	if c.ObjTime <= 0 {
		return fmt.Errorf("machine: ObjTime = %v", c.ObjTime)
	}
	if c.StartupTime < 0 || c.CommitTime < 0 {
		return fmt.Errorf("machine: negative coordination times")
	}
	// A zero delay re-submits a refused request at the instant it was
	// refused, so with zero control costs simulated time never advances.
	if c.RetryDelay <= 0 {
		return fmt.Errorf("machine: RetryDelay = %v", c.RetryDelay)
	}
	if k := c.Control; k.DDTime < 0 || k.ChainTime < 0 || k.KWTPGTime < 0 || k.KeepTime < 0 {
		return fmt.Errorf("machine: negative control costs %+v", k)
	}
	for _, d := range [...]struct {
		name string
		v    event.Time
	}{
		{"ObjTime", c.ObjTime}, {"StartupTime", c.StartupTime}, {"CommitTime", c.CommitTime},
		{"RetryDelay", c.RetryDelay}, {"Control.DDTime", c.Control.DDTime},
		{"Control.ChainTime", c.Control.ChainTime}, {"Control.KWTPGTime", c.Control.KWTPGTime},
		{"Control.KeepTime", c.Control.KeepTime},
	} {
		if d.v > MaxDuration {
			return fmt.Errorf("machine: %s = %v beyond MaxDuration %v", d.name, d.v, MaxDuration)
		}
	}
	return nil
}

// NodeOf places a partition: node ID = partition ID modulo NumNodes
// (§4.1), the placement that range-partitions every relation across all
// nodes.
func (c Config) NodeOf(p txn.PartitionID) int {
	n := int(p) % c.NumNodes
	if n < 0 {
		n += c.NumNodes
	}
	return n
}

// fifo is a first-in-first-out queue in a power-of-two ring: it allocates
// only while growing to the peak backlog, where a slice popped with
// s = s[1:] and refilled with append reallocates for ever.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		grown := make([]T, max(4, 2*len(f.buf)))
		copy(grown[copy(grown, f.buf[f.head:]):], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Work is one unit of control processing. Run is invoked when the CN
// reaches the job and returns the CPU time it consumes; Done fires once
// that time has elapsed. What Run decides lives in the job until Done
// reads it — the CN keeps only the job — so resubmitting one job value
// again and again (from its own Done at the earliest) allocates nothing.
type Work interface {
	Run(now event.Time) (cpu event.Time)
	Done(now event.Time)
}

// ControlNode is the centralized CN: a FIFO single server for control
// work (admission, lock decisions, commit coordination).
type ControlNode struct {
	q        *event.Queue
	pending  fifo[Work]
	cur      Work          // the job occupying the CN, nil when idle
	complete event.Handler // cn.finish, bound once
	BusyTime event.Time
	Ops      uint64
}

// NewControlNode returns a CN bound to the event queue.
func NewControlNode(q *event.Queue) *ControlNode {
	cn := &ControlNode{q: q}
	cn.complete = cn.finish
	return cn
}

// Submit enqueues control work; it runs when the CN becomes free.
func (cn *ControlNode) Submit(w Work) {
	if w == nil {
		panic("machine: nil control work")
	}
	cn.pending.push(w)
	cn.pump()
}

// QueueLen returns the number of control requests waiting (not running).
func (cn *ControlNode) QueueLen() int { return cn.pending.n }

func (cn *ControlNode) pump() {
	if cn.cur != nil || cn.pending.n == 0 {
		return
	}
	cn.cur = cn.pending.pop()
	cpu := cn.cur.Run(cn.q.Now())
	if cpu < 0 {
		cpu = 0
	}
	cn.BusyTime += cpu
	cn.Ops++
	cn.q.After(cpu, cn.complete)
}

// finish frees the CN before the job's Done runs, so work Done submits
// starts at once when nothing else is waiting.
func (cn *ControlNode) finish(now event.Time) {
	w := cn.cur
	cn.cur = nil
	w.Done(now)
	cn.pump()
}

// Job is one step of a transaction resident at a DN: the remaining I/O
// demand of the step in objects.
type Job struct {
	Txn       *txn.T
	Step      int
	Remaining float64
	// Cancelled marks a job whose transaction was aborted: the DN drops
	// it at the next scheduling point without reporting OnQuantum or
	// OnStepDone. An in-flight quantum still completes (the I/O is
	// already issued) but is not reported.
	Cancelled bool
}

// DataNode is one DN: a round-robin processor of bulk jobs with a
// one-object quantum. At most one quantum is in flight, so its state
// sits beside the job it belongs to and one handler completes them all.
type DataNode struct {
	ID   int
	q    *event.Queue
	jobs fifo[*Job]

	cur        *Job       // the job whose quantum is in flight, nil when idle
	curDur     event.Time // that quantum's duration
	curQuantum float64    // and its size in objects
	complete   event.Handler

	objTime event.Time
	// BusyTime accumulates processing time for utilization metrics.
	BusyTime event.Time
	// Objects counts processed objects (fractional quanta included).
	Objects float64

	// OnQuantum fires after each processed quantum (the §3.1 weight
	// message to the CN). OnStepDone fires when a job's step completes.
	OnQuantum  func(j *Job, objects float64, now event.Time)
	OnStepDone func(j *Job, now event.Time)
}

// NewDataNode returns a DN bound to the event queue.
func NewDataNode(id int, q *event.Queue, objTime event.Time) *DataNode {
	if objTime <= 0 {
		panic(fmt.Sprintf("machine: ObjTime %v", objTime))
	}
	n := &DataNode{ID: id, q: q, objTime: objTime}
	n.complete = n.finish
	return n
}

// QueueLen returns the number of jobs waiting or running at the DN.
func (n *DataNode) QueueLen() int {
	if n.cur != nil {
		return n.jobs.n + 1
	}
	return n.jobs.n
}

// Enqueue adds a job to the round-robin ring.
func (n *DataNode) Enqueue(j *Job) {
	if j == nil || j.Txn == nil {
		panic("machine: bad job")
	}
	n.jobs.push(j)
	n.pump()
}

const remainingEps = 1e-9

func (n *DataNode) pump() {
	for n.cur == nil && n.jobs.n > 0 {
		j := n.jobs.pop()
		if j.Cancelled {
			// Aborted transaction: the job evaporates without callbacks.
			continue
		}
		if j.Remaining <= remainingEps {
			// Zero-demand step (e.g. a fully filtered selection):
			// completes without occupying the node.
			if n.OnStepDone != nil {
				n.OnStepDone(j, n.q.Now())
			}
			continue
		}
		quantum := math.Min(1, j.Remaining)
		dur := event.Time(math.Round(quantum * float64(n.objTime)))
		if dur < 1 {
			dur = 1
		}
		n.cur, n.curDur, n.curQuantum = j, dur, quantum
		n.q.After(dur, n.complete)
	}
}

// finish completes the quantum in flight.
func (n *DataNode) finish(now event.Time) {
	j, quantum := n.cur, n.curQuantum
	n.cur = nil
	n.BusyTime += n.curDur
	n.Objects += quantum
	j.Remaining -= quantum
	if j.Remaining <= remainingEps {
		j.Remaining = 0
	}
	// OnQuantum may cancel the job (the simulator's injected-abort
	// path), so the cancellation check runs both before and after.
	if n.OnQuantum != nil && !j.Cancelled {
		n.OnQuantum(j, quantum, now)
	}
	switch {
	case j.Cancelled:
		// Dropped: no completion callback, no requeue.
	case j.Remaining == 0:
		if n.OnStepDone != nil {
			n.OnStepDone(j, now)
		}
	default:
		n.jobs.push(j)
	}
	n.pump()
}

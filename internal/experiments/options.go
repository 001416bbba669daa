package experiments

import (
	"sync"

	"batsched/internal/fault"
	"batsched/internal/obs"
	"batsched/internal/sim"
)

// Option attaches observability or tuning to an experiment run. The
// Options struct keeps the simulation parameters (machine, horizon,
// sweep); Options values stay plain data while cross-cutting concerns
// arrive as functional options:
//
//	res, err := experiments.RunExperiment1(o,
//		experiments.WithTrace(sink),
//		experiments.WithParallelism(4))
type Option func(*runConfig)

type runConfig struct {
	trace    obs.Observer
	parallel int
	inj      *fault.Injector
}

func buildRunConfig(opts []Option) runConfig {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	return rc
}

// WithTrace streams every simulation's structured events to o.
//
// Sink ownership rule: the shared observer is never handed to a running
// simulation. Each grid cell emits into a private per-run buffer, and
// completed buffers are replayed into o in deterministic grid order
// (variant-major, then scheduler, λ and replicate) — so the byte stream an
// attached obs.JSONL sink produces is identical whether the grid ran on
// one worker or on runtime.NumCPU() workers, and o only ever sees
// events from the single goroutine that owns the replay cursor at that
// moment. It is the one way to collect run metrics too: hand it an
// obs.Metrics (obs.Multi joins it with a trace sink) and read the
// aggregate, keyed by scheduler label, when the experiment returns.
func WithTrace(o obs.Observer) Option {
	return func(rc *runConfig) { rc.trace = o }
}

// WithFaults runs every grid cell under the fault injector's mid-run
// aborts (sim.WithFaults). The same injector is shared by every
// cell; that is safe and deterministic because fault decisions are pure
// functions of (seed, identifier), never of call order, so each cell
// sees exactly the schedule its own transaction IDs draw. A nil
// injector is ignored.
func WithFaults(in *fault.Injector) Option {
	return func(rc *runConfig) { rc.inj = in }
}

// WithParallelism bounds the harness worker pool to n concurrent
// simulations. n <= 0 (or omitting the option) means
// runtime.NumCPU(). Results are
// written into pre-indexed slots and sinks are merged in grid order, so
// every parallelism level produces byte-identical output.
func WithParallelism(n int) Option {
	return func(rc *runConfig) {
		if n > 0 {
			rc.parallel = n
		}
	}
}

// capture is a per-run trace buffer. A simulation is single-threaded
// and the buffer is owned by exactly one run, so Observe needs no lock;
// the buffered events are replayed into the shared observer — by
// orderedFlush, under its mutex — only after the run has completed.
type capture struct {
	events []obs.Event
}

// Observe appends the event to the run-private buffer.
func (c *capture) Observe(e obs.Event) { c.events = append(c.events, e) }

// forJob builds one grid job's private trace buffer (nil unless
// WithTrace) and the sim.Run options wiring it up. Nothing here is shared
// with any other run: the buffer is replayed into the shared observer in
// grid order.
func (rc runConfig) forJob() (*capture, []sim.Option) {
	var simOpts []sim.Option
	if rc.inj.Enabled() {
		simOpts = append(simOpts, sim.WithFaults(rc.inj))
	}
	var trace *capture
	if rc.trace != nil {
		trace = &capture{}
		simOpts = append(simOpts, sim.WithTrace(trace))
	}
	return trace, simOpts
}

// orderedFlush replays per-run trace buffers into the shared observer
// in job-index order, regardless of the order in which parallel runs
// complete. Job i's events are delivered only once jobs 0..i-1 have
// been delivered, which makes the shared sink's event stream — and
// hence a JSONL trace file — a pure function of the grid, independent
// of worker count and scheduling.
type orderedFlush struct {
	shared obs.Observer
	mu     sync.Mutex
	next   int
	ready  []*capture
	done   []bool
}

func newOrderedFlush(shared obs.Observer, n int) *orderedFlush {
	if shared == nil {
		return nil
	}
	return &orderedFlush{shared: shared, ready: make([]*capture, n), done: make([]bool, n)}
}

// complete records job i's buffer and flushes every maximal prefix of
// completed jobs. A nil flusher (no shared observer) is a no-op.
func (f *orderedFlush) complete(i int, c *capture) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ready[i] = c
	f.done[i] = true
	for f.next < len(f.done) && f.done[f.next] {
		if buf := f.ready[f.next]; buf != nil {
			for _, e := range buf.events {
				f.shared.Observe(e)
			}
			f.ready[f.next] = nil // release the buffer
		}
		f.next++
	}
}

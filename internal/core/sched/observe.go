package sched

import (
	"time"

	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// GraphHolder is implemented by schedulers that maintain a WTPG (every
// wtpgBase scheduler: C2PL, CHAIN, K-WTPG and the hybrids).
type GraphHolder interface {
	Graph() *wtpg.Graph
}

// observed decorates a Scheduler with trace emission: every Admit and
// Request outcome becomes an obs Decision event carrying the decision,
// its control-CPU cost, its wall duration, and the WTPG size; edge
// resolutions become Resolve events; and critical-path length changes
// after granted admissions, granted requests and commits become
// CriticalPathChange events.
//
// The wrapper is only installed when an observer is configured, so the
// default path pays nothing.
type observed struct {
	inner Scheduler
	sink  obs.Observer
	graph *wtpg.Graph // nil for graph-free schedulers (NODC, ASL)
	label string
	// lastNow lets the graph's OnResolve hook (which has no clock)
	// timestamp its events with the current decision's time.
	lastNow  event.Time
	lastPath float64
	// lastDegraded tracks the inner scheduler's Degradable flag so mode
	// transitions become degrade/restore events.
	lastDegraded bool
}

// Observed wraps s so every decision is reported to o. If s maintains a
// WTPG its edge resolutions and critical-path changes are reported too.
// A nil observer returns s unchanged.
func Observed(s Scheduler, o obs.Observer) Scheduler {
	if o == nil {
		return s
	}
	w := &observed{inner: s, sink: o, label: s.Name()}
	if gh, ok := s.(GraphHolder); ok {
		w.graph = gh.Graph()
		w.graph.OnResolve = func(from, to txn.ID) {
			o.Observe(obs.Event{
				Kind:  obs.KindResolve,
				At:    w.lastNow,
				Sched: w.label,
				From:  from,
				To:    to,
				Graph: w.graph.Len(),
			})
		}
	}
	return w
}

func (w *observed) Name() string { return w.inner.Name() }

func (w *observed) Admit(t *txn.T, now event.Time) Outcome {
	w.lastNow = now
	start := time.Now()
	out := w.inner.Admit(t, now)
	w.emitDecision("admit", t.ID, -1, -1, false, out, now, time.Since(start))
	if out.Decision == Granted {
		w.checkCriticalPath(now)
	}
	w.checkDegraded(now)
	return out
}

func (w *observed) Request(t *txn.T, step int, now event.Time) Outcome {
	w.lastNow = now
	start := time.Now()
	out := w.inner.Request(t, step, now)
	sp := t.Steps[step]
	w.emitDecision("request", t.ID, step, sp.Part, sp.Mode == txn.Write, out, now, time.Since(start))
	if out.Decision == Granted {
		w.checkCriticalPath(now)
	}
	w.checkDegraded(now)
	return out
}

func (w *observed) ObjectDone(t *txn.T, objects float64, now event.Time) {
	w.lastNow = now
	w.inner.ObjectDone(t, objects, now)
}

func (w *observed) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	w.lastNow = now
	freed, cpu := w.inner.Commit(t, now)
	w.checkCriticalPath(now)
	w.checkDegraded(now)
	return freed, cpu
}

// Abort forwards the recovery path and reports it: one Abort event
// (splice resolutions arrive through OnResolve as usual), then the
// critical-path and degraded-mode checks.
func (w *observed) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	w.lastNow = now
	freed, cpu := w.inner.Abort(t, now)
	e := obs.Event{Kind: obs.KindAbort, At: now, Sched: w.label, Txn: t.ID}
	if w.graph != nil {
		e.Graph = w.graph.Len()
	}
	w.sink.Observe(e)
	w.checkCriticalPath(now)
	w.checkDegraded(now)
	return freed, cpu
}

// CheckInvariants forwards the simulator's SelfCheck hook to the inner
// scheduler when it supports it.
func (w *observed) CheckInvariants() error {
	if c, ok := w.inner.(interface{ CheckInvariants() error }); ok {
		return c.CheckInvariants()
	}
	return nil
}

// Graph forwards GraphHolder so nested wrapping keeps working.
func (w *observed) Graph() *wtpg.Graph { return w.graph }

func (w *observed) emitDecision(op string, id txn.ID, step int, part txn.PartitionID, write bool, out Outcome, now event.Time, dur time.Duration) {
	e := obs.Event{
		Kind:     obs.KindDecision,
		At:       now,
		Sched:    w.label,
		Txn:      id,
		Step:     step,
		Part:     part,
		Write:    write,
		Op:       op,
		Decision: out.Decision.String(),
		CPU:      out.CPU,
		DurNS:    dur.Nanoseconds(),
	}
	if w.graph != nil {
		e.Graph = w.graph.Len()
	}
	w.sink.Observe(e)
}

// checkDegraded emits a Degrade or Restore event when the inner
// scheduler's Degradable flag transitions.
func (w *observed) checkDegraded(now event.Time) {
	d, ok := w.inner.(Degradable)
	if !ok {
		return
	}
	cur := d.Degraded()
	if cur == w.lastDegraded {
		return
	}
	w.lastDegraded = cur
	kind := obs.KindRestore
	if cur {
		kind = obs.KindDegrade
	}
	e := obs.Event{Kind: kind, At: now, Sched: w.label}
	if w.graph != nil {
		e.Graph = w.graph.Len()
	}
	w.sink.Observe(e)
}

// Degraded forwards Degradable so nested wrapping keeps working.
func (w *observed) Degraded() bool {
	if d, ok := w.inner.(Degradable); ok {
		return d.Degraded()
	}
	return false
}

// checkCriticalPath reads the WTPG critical path and emits a
// CriticalPathChange event when its length moved. Only runs with an
// observer attached; the graph caches the critical path until its next
// mutation, so this is O(1) unless the graph mutated since the last
// read (then one O(V+E) recomputation over resolved edges).
func (w *observed) checkCriticalPath(now event.Time) {
	if w.graph == nil {
		return
	}
	length, err := w.graph.CriticalPath()
	if err != nil || length == w.lastPath {
		return
	}
	w.lastPath = length
	w.sink.Observe(obs.Event{
		Kind:     obs.KindCriticalPathChange,
		At:       now,
		Sched:    w.label,
		CritPath: length,
		Graph:    w.graph.Len(),
	})
}

// Package obs is the observability subsystem: structured trace events
// and cheap metrics explaining *why* a schedule came out the way it did.
//
// The paper's argument is all about visibility into contention — WTPG
// critical paths estimate schedule completion, E(q) estimates local
// contention — but aggregate results (mean response time, throughput)
// cannot show which decisions produced them. This package defines typed
// trace events covering the whole life of a transaction, from admission
// through lock decisions to commit, plus the control-plane internals
// (edge resolutions, critical-path changes), and pluggable sinks that
// consume them:
//
//   - Ring: a fixed-capacity in-memory buffer (flight recorder),
//   - JSONL: one JSON object per line on any io.Writer,
//   - Metrics: counters and bucketed histograms with a human-readable
//     summary table,
//   - Multi: a fan-out combinator,
//   - Nop: the explicit no-op.
//
// Emission sites (package sim, live, and the sched.Observed wrapper)
// check their observer for nil before building an event, so the default
// — no observer — costs nothing.
//
// All sinks in this package are safe for concurrent use; the live
// controller and the experiment harness emit from many goroutines.
//
// The experiment harness additionally follows a per-run ownership rule
// for deterministic output: each parallel run emits only into a private
// trace buffer, and the harness replays completed buffers into the
// caller's one shared observer in grid order — so a single Metrics (or
// any sink, joined by Multi) sees the same stream at every parallelism
// level. See experiments.WithTrace.
package obs

import (
	"encoding/json"
	"fmt"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindAdmit: a transaction was submitted for admission (its arrival
	// at the control node). The admission *outcome* is a Decision event.
	KindAdmit Kind = iota
	// KindRequest: a lock request for one step was submitted.
	KindRequest
	// KindDecision: the scheduler decided an admit or lock request
	// (Op says which); carries the decision, its control-CPU cost, and
	// the WTPG size at decision time.
	KindDecision
	// KindObjectDone: bulk processing progressed by Objects objects
	// (the §3.1 weight-adjustment message).
	KindObjectDone
	// KindCommit: a transaction committed (RT is its response time) or,
	// when Decision is "aborted", released its locks without committing.
	KindCommit
	// KindResolve: a WTPG conflicting-edge was resolved From→To (a
	// precedence was fixed forever).
	KindResolve
	// KindCriticalPathChange: the length of the WTPG critical path
	// T0→…→Tf changed; CritPath is the new length in objects.
	KindCriticalPathChange
	// KindAbort: an admitted transaction was externally aborted (caller
	// abandonment or an injected fault) and the scheduler ran its recovery path — locks released,
	// precedence spliced. The splice's own resolutions arrive as
	// Resolve events.
	KindAbort
	// KindDegrade: a scheduler fell back to its degraded-but-safe mode
	// (CHAIN → ASL-style admission with cautious grants).
	KindDegrade
	// KindRestore: a degraded scheduler returned to full operation.
	KindRestore
	// KindFault: an injected fault fired in the simulator; Op names the
	// fault (always "abort": the transaction reached its injected abort
	// point mid-run).
	KindFault
	// KindWALAppend: a dependency-log record was appended (not yet
	// durable). Op is the record kind (always "commit"), Node the
	// per-node log it was routed to.
	KindWALAppend
	// KindWALSync: a WAL group-commit fsync pass completed; Batch is
	// the number of records the pass made durable (piggybacked callers
	// emit nothing), DurNS its wall duration.
	KindWALSync
	// KindRecover: a WAL replay rebuilt controller state. Batch is the
	// number of committed transactions replayed, Clusters the widest
	// replay wave (the parallelism the dependency log permitted), DurNS
	// the replay wall duration.
	KindRecover
	// KindPageRead: the storage engine fetched one page through a buffer
	// pool. Op is "hit" or "miss", Part the partition heap file, Node
	// the pool's node, Batch the bytes read from disk (0 on a hit).
	KindPageRead
	// KindPageWrite: a dirty page was written back to its heap file
	// (commit flush or dirty-victim eviction); Batch is the page bytes.
	KindPageWrite
	// KindPageEvict: the clock hand evicted a frame; Op is "clean" or
	// "dirty" (a dirty eviction is preceded by its PageWrite).
	KindPageEvict
)

var kindNames = [...]string{
	KindAdmit:              "admit",
	KindRequest:            "request",
	KindDecision:           "decision",
	KindObjectDone:         "object-done",
	KindCommit:             "commit",
	KindResolve:            "resolve",
	KindCriticalPathChange: "critical-path",
	KindAbort:              "abort",
	KindDegrade:            "degrade",
	KindRestore:            "restore",
	KindFault:              "fault",
	KindWALAppend:          "wal-append",
	KindWALSync:            "wal-sync",
	KindRecover:            "recover",
	KindPageRead:           "page-read",
	KindPageWrite:          "page-write",
	KindPageEvict:          "page-evict",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string name. Nothing in the
// repository reads a trace back, so there is no decoder.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one structured trace event. Fields beyond Kind, At and Txn
// are populated per kind (see the Kind constants); zero values mean
// "not applicable".
type Event struct {
	Kind Kind `json:"kind"`
	// At is the scheduler clock: simulation time in package sim,
	// wall milliseconds since controller start in package live.
	At event.Time `json:"at"`
	// WallNS is the wall-clock emission time (ns since the Unix epoch);
	// zero in deterministic simulation traces.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Sched is the scheduler label ("CHAIN", "K2", …).
	Sched string `json:"sched,omitempty"`
	// Txn is the transaction the event concerns (0 for graph-level
	// events such as critical-path changes).
	Txn txn.ID `json:"txn,omitempty"`
	// Step and Part locate a lock request (Request / Decision-request);
	// Write says it asks for the exclusive mode. A sharded live controller
	// decides a spanning transaction's projection, so a Decision event's
	// Step indexes that projection, not the transaction — Part and Write
	// are exact either way (docs/OBSERVABILITY.md).
	Step  int             `json:"step"`
	Part  txn.PartitionID `json:"part"`
	Write bool            `json:"write,omitempty"`
	// Op distinguishes Decision events: "admit" or "request".
	Op string `json:"op,omitempty"`
	// Decision is the outcome ("granted", "blocked", "delayed",
	// "aborted") of a Decision event, or "aborted" on a Commit event
	// that released locks without committing.
	Decision string `json:"decision,omitempty"`
	// CPU is the control-node CPU cost of a decision, in clocks
	// (simulation only; live decisions report DurNS instead).
	CPU event.Time `json:"cpu,omitempty"`
	// DurNS is the wall-clock duration of the scheduler call in
	// nanoseconds (populated by the sched.Observed wrapper).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Objects is the processed-object count of an ObjectDone event.
	Objects float64 `json:"objects,omitempty"`
	// RT is the response time carried by a Commit event.
	RT event.Time `json:"rt,omitempty"`
	// From and To name the resolved precedence of a Resolve event.
	From txn.ID `json:"from,omitempty"`
	To   txn.ID `json:"to,omitempty"`
	// CritPath is the critical-path length (objects) after the change.
	CritPath float64 `json:"crit_path,omitempty"`
	// Graph is the WTPG size (live transactions) at decision time.
	Graph int `json:"graph,omitempty"`
	// Queue is the number of requests already waiting on Part when a
	// Request event was emitted (lock-queue depth).
	Queue int `json:"queue,omitempty"`
	// Node is the per-node log a WAL append was routed to, or the node
	// of the buffer pool a page event ran through; meaningless for other
	// kinds.
	Node int `json:"node,omitempty"`
	// Batch is a count or size whose meaning is the kind's own: records
	// per WAL sync, transactions replayed, page bytes. Clusters is a
	// recovery's widest replay wave.
	Batch    int `json:"batch,omitempty"`
	Clusters int `json:"clusters,omitempty"`
	// Shard is the live controller's lock-table shard the event was
	// emitted from (WithShards). Zero both for shard 0 and for unsharded
	// emitters (the simulator, controller-level events), so a nonzero
	// value always names a real non-default shard.
	Shard int `json:"shard,omitempty"`
}

// String renders the event as one grep-friendly line: clock,
// transaction, kind, then the kind's own fields.
func (e Event) String() string {
	s := fmt.Sprintf("%9d %v %s", int64(e.At), e.Txn, e.Kind)
	switch e.Kind {
	case KindRequest:
		s += fmt.Sprintf(" step=%d part=P%d queue=%d", e.Step, e.Part, e.Queue)
	case KindDecision:
		s += fmt.Sprintf(" op=%s decision=%s cpu=%d graph=%d", e.Op, e.Decision, int64(e.CPU), e.Graph)
	case KindObjectDone:
		s += fmt.Sprintf(" n=%g", e.Objects)
	case KindCommit:
		if e.Decision != "" {
			s += " decision=" + e.Decision
		}
		s += fmt.Sprintf(" rt=%v", e.RT)
	case KindResolve:
		s += fmt.Sprintf(" %v->%v", e.From, e.To)
	case KindCriticalPathChange:
		s += fmt.Sprintf(" len=%.3g graph=%d", e.CritPath, e.Graph)
	case KindAbort:
		s += fmt.Sprintf(" graph=%d", e.Graph)
	case KindFault:
		if e.Op != "" {
			s += " op=" + e.Op
		}
	case KindWALAppend:
		s += fmt.Sprintf(" op=%s node=%d", e.Op, e.Node)
	case KindWALSync:
		s += fmt.Sprintf(" batch=%d", e.Batch)
	case KindRecover:
		s += fmt.Sprintf(" replayed=%d maxpar=%d dur_ns=%d", e.Batch, e.Clusters, e.DurNS)
	case KindPageRead:
		s += fmt.Sprintf(" part=P%d op=%s bytes=%d", e.Part, e.Op, e.Batch)
	case KindPageWrite:
		s += fmt.Sprintf(" part=P%d bytes=%d", e.Part, e.Batch)
	case KindPageEvict:
		s += fmt.Sprintf(" part=P%d op=%s", e.Part, e.Op)
	}
	if e.Shard > 0 {
		s += fmt.Sprintf(" shard=%d", e.Shard)
	}
	return s
}

// Observer receives trace events. Implementations must be safe for
// concurrent use when attached to the live controller or the experiment
// harness; a nil Observer at an emission site means "don't observe" and
// costs only the nil check.
type Observer interface {
	Observe(Event)
}

// Sink is an Observer with a lifecycle: Close flushes and releases any
// underlying resources. Every sink in this package implements it.
type Sink interface {
	Observer
	Close() error
}

// Nop is the explicit no-op sink: every event is discarded.
type Nop struct{}

// Observe discards the event.
func (Nop) Observe(Event) {}

// Close does nothing.
func (Nop) Close() error { return nil }

// multi fans events out to several observers in order.
type multi struct {
	obs []Observer
}

// Multi returns an observer that forwards every event to each of the
// given observers in order. Nil entries are skipped; with zero or one
// usable observers the combinator collapses to Nop or the observer
// itself.
func Multi(observers ...Observer) Observer {
	kept := make([]Observer, 0, len(observers))
	for _, o := range observers {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return Nop{}
	case 1:
		return kept[0]
	}
	return &multi{obs: kept}
}

func (m *multi) Observe(e Event) {
	for _, o := range m.obs {
		o.Observe(e)
	}
}

// Close closes every wrapped observer that is a Sink, returning the
// first error.
func (m *multi) Close() error {
	var first error
	for _, o := range m.obs {
		if s, ok := o.(Sink); ok {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

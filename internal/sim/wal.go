package sim

// Dependency logging for the deterministic simulator: the same records
// the live controller writes (internal/wal, docs/ROBUSTNESS.md §9),
// captured from the simulated timeline so the kill-and-restart chaos
// battery can crash a run mid-window (wal.Log.Crash) and assert replay
// equivalence — the recovered committed set must equal the pre-crash
// committed prefix exactly.
//
// Begin and Abort records are appended but not individually forced, as
// in the live controller: records for one transaction share a per-node
// file in append order, so a commit record can only be durable if its
// begin already is. Durability points differ from the live controller
// in one deliberate way: every Commit forces a group-commit Sync in the
// same event that counts it and applies its effects (synchronous
// commit), where the live controller appends, releases the locks and
// acknowledges after a shared force. The simulated control node has no
// concurrent committers to share a pass with, and forcing at once means
// a crash's partial flush can strand only begin/abort records — which
// recovery re-aborts or ignores — so the committed set is exactly the
// synced commit records, matching what the run counted.

import (
	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// WithWAL attaches a caller-owned dependency log: admissions append
// Begin records (footprint + predecessors resolved at admission),
// commits append-and-force Commit records carrying the final resolved
// predecessor set, aborts append Abort records. The caller keeps the
// log's lifecycle — Close for a graceful shutdown, Crash to simulate
// SIGKILL — and the log must span at least the machine's nodes
// (wal.Open(dir, cfg.Machine.NumNodes)). A nil log is ignored.
func WithWAL(l *wal.Log) Option {
	return func(rc *runOpts) { rc.wal = l }
}

// walFail latches the first WAL error; Run reports it after the
// timeline drains (the simulator has no mid-run error plumbing).
func (s *simulator) walFail(err error) {
	if s.walErr == nil {
		s.walErr = err
	}
}

// walBegin logs the admission of st: routed to the node of its first
// partition (at admission time — completion records follow it there
// even if the partition later re-homes).
func (s *simulator) walBegin(st *txnState, now event.Time) {
	node := 0
	if len(st.t.Steps) > 0 {
		node = s.place.NodeOf(st.t.Steps[0].Part)
	}
	st.walNode, st.walLogged = node, true
	err := s.wal.Append(wal.Record{
		Kind:  wal.Begin,
		Txn:   st.t.ID,
		Node:  node,
		At:    now,
		Steps: wal.Footprint(st.t),
		Preds: sched.Predecessors(s.sch, st.t.ID),
	})
	if err != nil {
		s.walFail(err)
		return
	}
	s.emitObs(obs.Event{Kind: obs.KindWALAppend, At: now, Txn: st.t.ID, Op: "begin", Node: node})
}

// walCommit logs and forces st's commit record. preds is the final
// resolved predecessor set, read before the scheduler dropped st from
// the graph (submitCommit captures it).
func (s *simulator) walCommit(st *txnState, preds []txn.ID, now event.Time) {
	if err := s.wal.Append(wal.Record{Kind: wal.Commit, Txn: st.t.ID, Node: st.walNode, At: now, Preds: preds}); err != nil {
		s.walFail(err)
		return
	}
	s.emitObs(obs.Event{Kind: obs.KindWALAppend, At: now, Txn: st.t.ID, Op: "commit", Node: st.walNode})
	n, err := s.wal.Sync()
	if err != nil {
		s.walFail(err)
		return
	}
	if n > 0 {
		// DurNS stays zero: the fsync is real wall IO, but simulation
		// traces must remain a pure function of (Config, Seed).
		s.emitObs(obs.Event{Kind: obs.KindWALSync, At: now, Batch: n})
	}
}

// walAbort logs st's abort record (unforced — a lost abort record
// re-aborts at recovery anyway).
func (s *simulator) walAbort(st *txnState, now event.Time) {
	if err := s.wal.Append(wal.Record{Kind: wal.Abort, Txn: st.t.ID, Node: st.walNode, At: now}); err != nil {
		s.walFail(err)
		return
	}
	s.emitObs(obs.Event{Kind: obs.KindWALAppend, At: now, Txn: st.t.ID, Op: "abort", Node: st.walNode})
}

package sim

// Dependency logging for the deterministic simulator: the records the
// live controller writes, under the same contract (internal/durable),
// captured from the simulated timeline so the kill-and-restart chaos
// battery can crash a run mid-window (wal.Log.Crash) and assert replay
// equivalence — the recovered committed set must equal the pre-crash
// committed prefix exactly.
//
// What is the simulator's own is *when* it forces: every commit is
// pre-committed and forced in the same event that counts it (synchronous
// commit, durableCommit), where the live controller releases the locks
// in between and shares a pass. The simulated control node has no
// concurrent committers to share one with, and forcing at once means a
// crash finds nothing pending — aborted and unfinished transactions
// append nothing — so the committed set is exactly the synced records,
// matching what the run counted.

import "batsched/internal/wal"

// WithWAL attaches a caller-owned dependency log: each commit appends
// and forces one Commit record carrying the footprint and the
// predecessor sets resolved at admission and at commit; aborts append
// nothing. The caller keeps the log's lifecycle — Close for a graceful
// shutdown, Crash to simulate SIGKILL — and the log must span at least
// the machine's nodes (wal.Open(dir, cfg.Machine.NumNodes)). A nil log
// is ignored.
func WithWAL(l *wal.Log) Option {
	return func(rc *runOpts) { rc.wal = l }
}

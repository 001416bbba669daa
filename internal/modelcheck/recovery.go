package modelcheck

// Recovery verification: an independent audit of a wal.Replay result
// against the raw per-node log scans it was computed from. wal.Replay
// already validates its own input; this checker re-derives the
// invariants from scratch, so a bug in the replay code and a bug in its
// self-checks would have to agree to slip through. It is one clause of
// History.Certify, and callable alone (batsim -recoverwal, the benchmark).

import (
	"fmt"

	"batsched/internal/txn"
	"batsched/internal/wal"
)

// VerifyRecovery checks a replay result against the node scans it came
// from:
//
//   - grammar: every record is a Commit record, at most one per
//     transaction;
//   - completeness: every committed transaction has a durable Commit
//     record, and every durable Commit record is in the committed set;
//   - consistent cut: every Commit record lies in the gap-free prefix of
//     the scans' sequence numbering. A committer releases its locks
//     before its record is forced, so a record beyond a hole may belong
//     to a transaction that read from the one the hole swallowed
//     (wal.Scan cuts there; this recomputes the hole on its own);
//   - wave sanity: every committed transaction sits in a strictly later
//     wave than each of its logged predecessors that committed — so the
//     logged order is a DAG (that it is the order the execution had is
//     Certify's clause 2); dead ones impose no order, and a committed one
//     lost to a crash is excluded by the cut, not by this restriction.
//     Wave numbers are dense in [0, Waves), MaxParallel is the widest.
func VerifyRecovery(scans []wal.NodeScan, rec *wal.Recovery) error {
	if rec == nil {
		return fmt.Errorf("modelcheck: nil recovery")
	}
	commits := make(map[txn.ID]wal.Record)
	seqs := make(map[uint64]bool)
	for _, ns := range scans {
		for _, r := range ns.Records {
			seqs[r.Seq] = true
			if r.Kind != wal.Commit {
				return fmt.Errorf("modelcheck: %v record for %v; a log holds only commit records", r.Kind, r.Txn)
			}
			if _, dup := commits[r.Txn]; dup {
				return fmt.Errorf("modelcheck: %v has two commit records", r.Txn)
			}
			commits[r.Txn] = r
		}
	}
	// The first sequence number no scan holds. Hand-built scans number
	// nothing (every Seq 0) and so sit wholly below it.
	hole := uint64(1)
	for seqs[hole] {
		hole++
	}
	for id, c := range commits {
		if c.Seq > hole {
			return fmt.Errorf("modelcheck: commit record of %v (seq %d) lies beyond the sequence gap at %d", id, c.Seq, hole)
		}
	}
	committed := make(map[txn.ID]bool, len(rec.Committed))
	for _, id := range rec.Committed {
		if committed[id] {
			return fmt.Errorf("modelcheck: %v committed twice in replay order", id)
		}
		committed[id] = true
		if _, ok := commits[id]; !ok {
			return fmt.Errorf("modelcheck: committed %v has no durable commit record", id)
		}
	}
	for id := range commits {
		if !committed[id] {
			return fmt.Errorf("modelcheck: durable commit record for %v missing from recovered committed set", id)
		}
	}

	// Wave sanity: precedence respected, numbering dense, width honest.
	width := make(map[int]int)
	for _, id := range rec.Committed {
		w, ok := rec.Wave[id]
		if !ok {
			return fmt.Errorf("modelcheck: committed %v has no wave assignment", id)
		}
		if w < 0 || w >= rec.Waves {
			return fmt.Errorf("modelcheck: %v wave %d outside [0,%d)", id, w, rec.Waves)
		}
		width[w]++
		for _, p := range commits[id].Preds {
			if pw := rec.Wave[p]; committed[p] && pw >= w {
				return fmt.Errorf("modelcheck: %v (wave %d) replayed no later than its predecessor %v (wave %d)", id, w, p, pw)
			}
		}
	}
	maxWidth := 0
	for w := 0; w < rec.Waves; w++ {
		if width[w] == 0 {
			return fmt.Errorf("modelcheck: wave %d is empty (of %d waves)", w, rec.Waves)
		}
		if width[w] > maxWidth {
			maxWidth = width[w]
		}
	}
	if rec.MaxParallel != maxWidth {
		return fmt.Errorf("modelcheck: MaxParallel %d but widest wave has %d", rec.MaxParallel, maxWidth)
	}
	if len(rec.Committed) == 0 && rec.Waves != 0 {
		return fmt.Errorf("modelcheck: empty committed set but %d waves", rec.Waves)
	}
	return nil
}

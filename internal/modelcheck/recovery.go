package modelcheck

// Recovery verification: an independent audit of a wal.Replay result
// against the raw per-node log scans it was computed from. wal.Replay
// already validates its own input; this checker re-derives the
// invariants from scratch — including rebuilding the committed
// dependency history inside a real wtpg.Graph and asking IT whether the
// logged precedence order is acyclic — so a bug in the replay code and
// a bug in its self-checks would have to agree to slip through. The
// kill-and-restart chaos battery runs this after every recovery.

import (
	"fmt"

	"batsched/internal/core/wtpg"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// VerifyRecovery checks a replay result against the node scans it came
// from:
//
//   - completeness: every committed transaction has a durable Begin, and
//     every durable Commit record is in the committed set;
//   - consistent cut: every Commit record lies in the gap-free prefix of
//     the scans' sequence numbering. A committer releases its locks
//     before its record is forced, so a record beyond a hole may belong
//     to a transaction that read from the one the hole swallowed
//     (wal.Scan cuts there; this recomputes the hole on its own);
//   - exclusivity: no transaction is in more than one of committed /
//     aborted / incomplete (re-aborted);
//   - acyclicity: the committed transactions' logged predecessor edges
//     (restricted to committed predecessors — dead ones impose no
//     order) form a DAG, verified by loading them into a wtpg.Graph as
//     resolved conflicts and running its critical-path cycle check — a
//     committed predecessor lost to a crash is excluded by the cut, not
//     by this restriction;
//   - wave sanity: every committed transaction sits in a strictly later
//     wave than each of its committed predecessors, wave numbers are
//     dense in [0, Waves), and MaxParallel equals the widest wave.
func VerifyRecovery(scans []wal.NodeScan, rec *wal.Recovery) error {
	if rec == nil {
		return fmt.Errorf("modelcheck: nil recovery")
	}
	begins := make(map[txn.ID]wal.Record)
	commits := make(map[txn.ID]wal.Record)
	seqs := make(map[uint64]bool)
	for _, ns := range scans {
		for _, r := range ns.Records {
			seqs[r.Seq] = true
			switch r.Kind {
			case wal.Begin:
				begins[r.Txn] = r
			case wal.Commit:
				commits[r.Txn] = r
			}
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
		if _, ok := begins[id]; !ok {
			return fmt.Errorf("modelcheck: committed %v has no durable begin record", id)
		}
		if _, ok := commits[id]; !ok {
			return fmt.Errorf("modelcheck: committed %v has no durable commit record", id)
		}
	}
	for id := range commits {
		if !committed[id] {
			return fmt.Errorf("modelcheck: durable commit record for %v missing from recovered committed set", id)
		}
	}
	for _, id := range rec.Aborted {
		if committed[id] {
			return fmt.Errorf("modelcheck: %v both committed and aborted", id)
		}
	}
	for _, b := range rec.Incomplete {
		if committed[b.Txn] {
			return fmt.Errorf("modelcheck: %v both committed and re-aborted as incomplete", b.Txn)
		}
		if _, ok := commits[b.Txn]; ok {
			return fmt.Errorf("modelcheck: %v re-aborted despite a durable commit record", b.Txn)
		}
	}

	// Rebuild the committed precedence history in a wtpg.Graph: each
	// logged predecessor edge becomes a resolved conflict, then the
	// graph's own cycle detection (CriticalPath errors on a cycle)
	// passes judgment on the order recovery replayed in.
	g := wtpg.New()
	for _, id := range rec.Committed {
		if err := g.AddNode(id, 1); err != nil {
			return fmt.Errorf("modelcheck: rebuild: %w", err)
		}
	}
	preds := func(id txn.ID) []txn.ID {
		seen := map[txn.ID]bool{}
		var out []txn.ID
		for _, p := range append(append([]txn.ID(nil), begins[id].Preds...), commits[id].Preds...) {
			if committed[p] && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		return out
	}
	for _, id := range rec.Committed {
		for _, p := range preds(id) {
			if _, _, ok := g.Resolved(p, id); ok {
				continue // edge already present from the other record
			}
			if err := g.AddConflict(p, id, 1, 1); err != nil {
				return fmt.Errorf("modelcheck: rebuild edge %v->%v: %w", p, id, err)
			}
			if err := g.Resolve(p, id); err != nil {
				return fmt.Errorf("modelcheck: resolve %v->%v: %w", p, id, err)
			}
		}
	}
	if _, err := g.CriticalPath(); err != nil {
		return fmt.Errorf("modelcheck: committed dependency history is cyclic: %w", err)
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
		for _, p := range preds(id) {
			if pw := rec.Wave[p]; pw >= w {
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

// Access is one pre-committed transaction's use of one partition.
type Access struct {
	Txn   txn.ID
	Write bool
}

// VerifyCommitPrefix checks that a recovered committed set is closed
// under the conflict order the execution actually had: order lists, per
// partition, the transactions that pre-committed (released their locks)
// in the order they did, and recovered is the set a restart kept. In
// every partition a recovered transaction must not follow a lost one it
// conflicts with — no reader or writer after a lost writer, no writer
// after a lost reader — because it may have read what the lost one
// wrote, or overwritten what it read. Recovered transactions missing
// from order (their record was durable but the crash came before the
// lock release was observed) held their locks to the end and constrain
// nothing.
func VerifyCommitPrefix(order map[txn.PartitionID][]Access, recovered map[txn.ID]bool) error {
	for part, accs := range order {
		var lostWriter, lostReader txn.ID
		var haveLostWriter, haveLostReader bool
		for _, a := range accs {
			switch {
			case !recovered[a.Txn]:
				if a.Write && !haveLostWriter {
					lostWriter, haveLostWriter = a.Txn, true
				} else if !a.Write && !haveLostReader {
					lostReader, haveLostReader = a.Txn, true
				}
			case haveLostWriter:
				return fmt.Errorf("modelcheck: %v recovered on %v without its predecessor %v, a lost writer", a.Txn, part, lostWriter)
			case a.Write && haveLostReader:
				return fmt.Errorf("modelcheck: writer %v recovered on %v without its predecessor %v, a lost reader", a.Txn, part, lostReader)
			}
		}
	}
	return nil
}

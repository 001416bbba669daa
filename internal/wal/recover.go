package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"batsched/internal/txn"
)

// NodeScan is the recoverable prefix of one node's log.
type NodeScan struct {
	Node           int
	Records        []Record
	ValidBytes     int64 // frame bytes kept (header excluded)
	TruncatedBytes int64 // tail bytes ignored: torn, corrupt, or beyond the consistent cut
}

// Scan reads every node log under dir in parallel (one goroutine per
// file — recovery reads are embarrassingly parallel across nodes) and
// returns the recoverable history: each file's longest valid prefix
// (the torn-tail truncation rule), cut back to the gap-free prefix of
// the directory-wide sequence numbering (consistentCut). Scan never
// modifies the files; Open performs the same truncation physically when
// the log is reopened for appending.
func Scan(dir string) ([]NodeScan, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var nodes []int
	for _, e := range ents {
		var node int
		if _, err := fmt.Sscanf(e.Name(), "node-%d.wal", &node); err == nil {
			nodes = append(nodes, node)
		}
	}
	slices.Sort(nodes)
	scans := make([]NodeScan, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i, node int) {
			defer wg.Done()
			scans[i], errs[i] = scanNode(filepath.Join(dir, nodeFileName(node)), node)
		}(i, node)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	consistentCut(scans)
	return scans, nil
}

// consistentCut trims scans to the gap-free prefix of the sequence
// numbering — the records numbered 1, 2, 3, … up to the first number no
// file holds — and returns the last number kept. With one file it keeps
// everything (a file's valid prefix has no holes); with several, a crash
// can persist a record in one file and lose an earlier one in another,
// and everything after that hole is discarded: its transaction may have
// read from the lost one. Each file's numbers ascend, so the next number
// can only sit at the head of a file's unconsumed tail; a number held
// twice (not producible by Append) ends the prefix like a hole.
func consistentCut(scans []NodeScan) (last uint64) {
	keep := make([]int, len(scans))
	for advanced := true; advanced; {
		advanced = false
		for i, sc := range scans {
			for keep[i] < len(sc.Records) && sc.Records[keep[i]].Seq == last+1 {
				last++
				keep[i]++
				advanced = true
			}
		}
	}
	for i := range scans {
		sc := &scans[i]
		var cut int64
		for _, r := range sc.Records[keep[i]:] {
			cut += int64(frameLen(r))
		}
		sc.Records = sc.Records[:keep[i]]
		sc.ValidBytes -= cut
		sc.TruncatedBytes += cut
	}
	return last
}

// scanNode decodes one node file's longest valid prefix. A file that
// does not exist scans as empty (Open creates it).
func scanNode(path string, node int) (NodeScan, error) {
	sc := NodeScan{Node: node}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return sc, nil
	}
	if err != nil {
		return NodeScan{}, fmt.Errorf("wal: %w", err)
	}
	if len(data) < fileHeaderLen {
		// Torn mid-header: the node never synced a single record.
		sc.TruncatedBytes = int64(len(data))
		return sc, nil
	}
	hnode, err := parseHeader(data)
	if err != nil {
		return NodeScan{}, fmt.Errorf("wal: %s: %w", path, err)
	}
	if hnode != node {
		return NodeScan{}, fmt.Errorf("wal: %s: header names node %d", path, hnode)
	}
	recs, valid, _ := scanPrefix(data[fileHeaderLen:])
	sc.Records = recs
	sc.ValidBytes = int64(valid)
	sc.TruncatedBytes = int64(len(data) - fileHeaderLen - valid)
	return sc, nil
}

// Recovery reports what a Replay reconstructed.
type Recovery struct {
	// Committed lists every durably committed transaction in replay
	// order: wave-major, ascending id within a wave.
	Committed []txn.ID
	// MaxID is the highest id the log names, a committed transaction's
	// or one a Commit record lists as a predecessor (0 when nothing
	// committed): a run that appends to this log must number its
	// transactions above it. A second Commit record for an id makes
	// Replay refuse the log, and a new transaction under an id a record
	// names as a predecessor (one that aborted or was in flight at the
	// crash) would turn that logged dependency into a false one.
	MaxID txn.ID
	// Wave maps each committed transaction to its topological replay
	// wave; every logged committed predecessor lands in a strictly
	// earlier wave.
	Wave map[txn.ID]int
	// Waves and MaxParallel summarize the replay schedule: number of
	// topological waves and the widest wave — the replay parallelism
	// the dependency log permits, independent of worker count.
	Waves       int
	MaxParallel int
	// Records and TruncatedBytes total the scans' valid records and
	// discarded torn-tail bytes.
	Records        int
	TruncatedBytes int64
	// Elapsed is the wall time Replay took (scan time excluded).
	Elapsed time.Duration
}

// Replay reconstructs the committed history from per-node scans and
// replays it in parallel, constrained only by the logged predecessor
// edges: wave w holds every committed transaction whose committed
// predecessors all lie in waves < w, and apply runs concurrently across
// the transactions of one wave on up to workers goroutines (workers < 1
// means one per transaction). apply — called as apply(commit, wave) with
// the transaction's Commit record — may be nil to compute the schedule
// without replaying; when non-nil it must be safe for concurrent calls
// within a wave.
//
// Predecessor edges pointing at transactions with no Commit record
// (aborted, unfinished, or lost to a torn tail) impose no ordering. For
// an aborted or unfinished predecessor that is because it never released
// a lock its successor then took. For a committed predecessor that was
// lost it rests on the scans being a gap-free prefix (Scan's consistent
// cut): the predecessor appended its Commit record before releasing its
// locks, so any transaction that read from it has a later sequence
// number and was cut along with it — a committed record in scans never
// has a lost committed predecessor. Replay does not re-derive the cut;
// hand-built scans must respect it. A cycle among committed records is
// corruption and returns an error, as are a duplicate Commit record and
// a record of any other kind.
func Replay(scans []NodeScan, workers int, apply func(commit Record, wave int)) (*Recovery, error) {
	start := time.Now()
	rec := &Recovery{Wave: make(map[txn.ID]int)}
	commits := make(map[txn.ID]Record)
	for _, sc := range scans {
		rec.Records += len(sc.Records)
		rec.TruncatedBytes += sc.TruncatedBytes
		for _, r := range sc.Records {
			if r.Kind != Commit {
				return nil, fmt.Errorf("wal: %v record for %v", r.Kind, r.Txn)
			}
			if _, dup := commits[r.Txn]; dup {
				return nil, fmt.Errorf("wal: duplicate commit for %v", r.Txn)
			}
			commits[r.Txn] = r
			if len(commits) == 1 || r.Txn > rec.MaxID {
				rec.MaxID = r.Txn
			}
			for _, p := range r.Preds {
				rec.MaxID = max(rec.MaxID, p)
			}
		}
	}

	// Dependency DAG over the committed set, edges filtered to committed.
	succs := make(map[txn.ID][]txn.ID, len(commits))
	indeg := make(map[txn.ID]int, len(commits))
	for id := range commits {
		indeg[id] = 0
	}
	for id, c := range commits {
		for _, p := range c.Preds {
			if _, committed := commits[p]; !committed {
				continue
			}
			succs[p] = append(succs[p], id)
			indeg[id]++
		}
	}

	// Kahn by waves; each wave is an antichain and replays in parallel.
	frontier := make([]txn.ID, 0, len(indeg))
	for id, d := range indeg {
		if d == 0 {
			frontier = append(frontier, id)
		}
	}
	slices.Sort(frontier)
	replayed := 0
	for len(frontier) > 0 {
		wave := rec.Waves
		rec.Waves++
		if len(frontier) > rec.MaxParallel {
			rec.MaxParallel = len(frontier)
		}
		for _, id := range frontier {
			rec.Wave[id] = wave
		}
		rec.Committed = append(rec.Committed, frontier...)
		if apply != nil {
			runWave(frontier, commits, workers, wave, apply)
		}
		replayed += len(frontier)
		var next []txn.ID
		for _, id := range frontier {
			for _, s := range succs[id] {
				if indeg[s]--; indeg[s] == 0 {
					next = append(next, s)
				}
			}
		}
		slices.Sort(next)
		frontier = next
	}
	if replayed != len(commits) {
		return nil, fmt.Errorf("wal: dependency cycle among committed records (%d of %d replayable)",
			replayed, len(commits))
	}
	rec.Elapsed = time.Since(start)
	return rec, nil
}

// runWave applies one wave across at most workers goroutines.
func runWave(wave []txn.ID, commits map[txn.ID]Record, workers int, w int, apply func(Record, int)) {
	if workers < 1 || workers > len(wave) {
		workers = len(wave)
	}
	if workers <= 1 {
		for _, id := range wave {
			apply(commits[id], w)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan txn.ID)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ch {
				apply(commits[id], w)
			}
		}()
	}
	for _, id := range wave {
		ch <- id
	}
	close(ch)
	wg.Wait()
}

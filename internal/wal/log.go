package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Log is a set of per-node append-only logs under one directory
// (node-0000.wal, node-0001.wal, ...). Append buffers a record in memory
// against its node's log; Sync makes everything appended so far durable
// with group-commit batching: concurrent callers piggyback on a single
// write+fsync pass instead of issuing one fsync each.
//
// The pending buffers deliberately live in user space (not bufio, not
// the kernel page cache model): Crash discards them the way SIGKILL
// discards a process's unflushed state, optionally leaving a partial —
// torn — prefix behind, which is exactly what the torn-tail truncation
// rule and the kill-and-restart chaos battery exercise.
//
// Log is safe for concurrent use.
type Log struct {
	dir string

	mu       sync.Mutex
	syncDone sync.Cond // broadcast after every sync pass
	files    []*nodeLog

	appendGen uint64 // sequence number of the last appended record
	syncedGen uint64 // highest sequence number known durable
	syncing   bool
	syncErr   error // sticky: an fsync failure poisons the log
	closed    bool

	appends     uint64
	syncs       uint64
	syncedRecs  uint64
	maxBatch    int
	lastBatch   int
	truncatedIn int64 // torn bytes discarded while opening existing files

	// syncHook, when set (tests only), runs during the unlocked IO phase
	// of a sync pass — stretching it lets tests force group-commit
	// pile-ups deterministically even on a single-core host.
	syncHook func()
}

type nodeLog struct {
	f           *os.File
	pending     []byte
	pendingRecs int
}

// Stats is a snapshot of log-level counters.
type Stats struct {
	Appends        uint64 // records appended
	Syncs          uint64 // fsync passes (group commits)
	SyncedRecords  uint64 // records made durable
	MaxBatch       int    // most records made durable by one sync pass
	TruncatedBytes int64  // torn bytes discarded when opening existing logs
}

func nodeFileName(node int) string { return fmt.Sprintf("node-%04d.wal", node) }

// Open opens (creating as needed) the per-node logs under dir for at
// least n nodes; existing node files beyond n are opened too, so a
// restart over a smaller topology keeps their history. Existing files
// are validated and truncated to the recoverable history Scan would
// return — each file's longest valid prefix, cut back to the gap-free
// prefix of the sequence numbering — so the torn tail and any record
// stranded beyond a hole are discarded before any new append, and
// appends continue the numbering from the last record kept. The cut is
// made durable before Open returns: every file it shortened is fsynced,
// and so is the directory when a file was created or started over. A
// truncated tail that came back after a power loss would hold sequence
// numbers the new appends reuse, and the next cut would then drop
// acknowledged records.
func Open(dir string, n int) (*Log, error) {
	if n < 1 {
		return nil, fmt.Errorf("wal: Open with %d nodes", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if hi, err := highestNode(dir); err != nil {
		return nil, err
	} else if hi+1 > n {
		n = hi + 1
	}
	scans := make([]NodeScan, n)
	for node := range scans {
		sc, err := scanNode(filepath.Join(dir, nodeFileName(node)), node)
		if err != nil {
			return nil, err
		}
		scans[node] = sc
	}
	last := consistentCut(scans)
	l := &Log{dir: dir, files: make([]*nodeLog, n), appendGen: last, syncedGen: last}
	l.syncDone.L = &l.mu
	fresh := false
	for node, sc := range scans {
		nl, err := openNode(filepath.Join(dir, nodeFileName(node)), node, sc.ValidBytes)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		l.files[node] = nl
		l.truncatedIn += sc.TruncatedBytes
		fresh = fresh || len(nl.pending) > 0 // started over: a new directory entry
	}
	if fresh {
		if err := syncDir(dir); err != nil {
			l.closeFiles()
			return nil, err
		}
	}
	return l, nil
}

// syncDir fsyncs dir, making the files created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func highestNode(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return -1, fmt.Errorf("wal: %w", err)
	}
	hi := -1
	for _, e := range ents {
		var node int
		if _, err := fmt.Sscanf(e.Name(), "node-%d.wal", &node); err == nil && node > hi {
			hi = node
		}
	}
	return hi, nil
}

// openNode opens one node file for appending after its first valid
// frame bytes (scanNode validated the header), truncating what follows
// and fsyncing the file if that changed its size. A brand-new (or torn
// mid-header) file is started over with a fresh header, pending.
func openNode(path string, node int, valid int64) (*nodeLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fail := func(err error) (*nodeLog, error) {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	keep := int64(0)
	if info.Size() >= fileHeaderLen {
		keep = fileHeaderLen + valid
	}
	if keep != info.Size() {
		if err := f.Truncate(keep); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if _, err := f.Seek(keep, 0); err != nil {
		return fail(err)
	}
	nl := &nodeLog{f: f}
	if keep == 0 {
		nl.pending = appendHeader(nl.pending, node)
	}
	return nl, nil
}

// Append buffers r against its node's log, stamped with the next
// sequence number. The record is NOT durable until a subsequent Sync
// returns; callers enforcing write-ahead rules (commit durable before
// reporting success, log durable before a page image leaves the buffer
// pool) must call Sync at those points. Append encodes any Kind, but
// only a Commit record reads back: a record of any other kind makes the
// log unreadable from that record on, in every node file, because Scan
// and Open cut the history there as a torn tail.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: append on closed log")
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if r.Node < 0 || r.Node >= len(l.files) {
		return fmt.Errorf("wal: record for node %d, log has %d", r.Node, len(l.files))
	}
	nl := l.files[r.Node]
	r.Seq = l.appendGen + 1
	buf, err := appendRecord(nl.pending, r)
	if err != nil {
		return err
	}
	nl.pending = buf
	nl.pendingRecs++
	l.appends++
	l.appendGen = r.Seq
	return nil
}

// Sync makes every record appended before the call durable. Concurrent
// callers group-commit: while one caller's write+fsync pass is in
// flight, later callers wait and — if the pass covered their records —
// return without touching disk. It returns the number of records this
// call's own pass made durable (0 for piggybackers) so call sites can
// report group-commit batch sizes. A caller whose records are already
// durable is told so even on a closed log: Close's own final pass may be
// the one that covered them.
func (l *Log) Sync() (batched int, err error) {
	l.mu.Lock()
	target := l.appendGen
	for l.syncedGen < target && l.syncing && l.syncErr == nil && !l.closed {
		l.syncDone.Wait()
	}
	switch {
	case l.syncedGen >= target:
		l.mu.Unlock() // nothing pending, or piggybacked on another caller's pass
		return 0, nil
	case l.syncErr != nil:
		err = l.syncErr
		l.mu.Unlock()
		return 0, err
	case l.closed:
		l.mu.Unlock()
		return 0, errors.New("wal: sync on closed log")
	}
	// Become the syncer: steal every pending buffer, release the lock,
	// do the IO, then publish the new durable generation.
	l.syncing = true
	type item struct {
		f    *os.File
		data []byte
	}
	var items []item
	for _, nl := range l.files {
		if len(nl.pending) > 0 {
			items = append(items, item{nl.f, nl.pending})
			batched += nl.pendingRecs
			nl.pending = nil
			nl.pendingRecs = 0
		}
	}
	target = l.appendGen // everything buffered up to here rides this pass
	hook := l.syncHook
	l.mu.Unlock()

	if hook != nil {
		hook()
	}
	for _, it := range items {
		if _, werr := it.f.Write(it.data); werr != nil {
			err = fmt.Errorf("wal: %w", werr)
			break
		}
		if serr := it.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: %w", serr)
			break
		}
	}

	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.syncErr = err
	} else {
		if target > l.syncedGen {
			l.syncedGen = target
		}
		l.syncs++
		l.syncedRecs += uint64(batched)
		l.lastBatch = batched
		if batched > l.maxBatch {
			l.maxBatch = batched
		}
	}
	l.syncDone.Broadcast()
	l.mu.Unlock()
	return batched, err
}

// Crash simulates SIGKILL: for each node log, a frac-sized prefix of the
// pending (unsynced) bytes is written — as the page cache might have
// partially flushed — and the file is closed WITHOUT fsync. Everything
// else buffered is lost, typically leaving a torn frame at the tail.
// The log is unusable afterwards. frac is clamped to [0,1].
func (l *Log) Crash(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, nl := range l.files {
		if n := int(frac * float64(len(nl.pending))); n > 0 {
			nl.f.Write(nl.pending[:n])
		}
		nl.pending = nil
		nl.f.Close()
	}
	l.syncDone.Broadcast()
}

// Close flushes and fsyncs every pending buffer, then closes the files.
func (l *Log) Close() error {
	if _, err := l.Sync(); err != nil {
		l.mu.Lock()
		l.closed = true
		l.closeFiles()
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.closeFiles()
	l.syncDone.Broadcast()
	return err
}

func (l *Log) closeFiles() error {
	var first error
	for _, nl := range l.files {
		if nl == nil || nl.f == nil {
			continue
		}
		if err := nl.f.Close(); err != nil && first == nil {
			first = err
		}
		nl.f = nil
	}
	return first
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:        l.appends,
		Syncs:          l.syncs,
		SyncedRecords:  l.syncedRecs,
		MaxBatch:       l.maxBatch,
		TruncatedBytes: l.truncatedIn,
	}
}

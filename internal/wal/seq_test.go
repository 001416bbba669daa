package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"batsched/internal/txn"
)

// TestScanConsistentCut places records by hand so that a crash leaves a
// hole in the sequence numbering: node 0 loses seq 4 while node 1 keeps
// seq 5. Scan, Replay and a reopening Open must all drop the intact seq
// 5 — its transaction may have read from the lost one — and appends
// after reopening continue at 4.
func TestScanConsistentCut(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	app := func(r Record) {
		t.Helper()
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	write := []StepRef{{Part: 0, Mode: txn.Write}}
	app(Record{Kind: Commit, Txn: 1, Node: 0, Steps: write})                     // seq 1
	app(Record{Kind: Commit, Txn: 2, Node: 1, Steps: write, Preds: []txn.ID{1}}) // seq 2
	app(Record{Kind: Commit, Txn: 3, Node: 0, Steps: make([]StepRef, 40)})       // seq 3
	if _, err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Txn 4 pre-commits (seq 4, node 0), releases partition 0, and txn 5
	// commits after reading from it (seq 5, node 1). Crash(0.5) writes
	// half of each file's pending bytes: node 0's lone long frame is
	// torn, node 1's short frame survives whole, the long one behind it
	// is torn.
	app(Record{Kind: Commit, Txn: 4, Node: 0, Steps: write, Preds: make([]txn.ID, 30)}) // seq 4
	app(Record{Kind: Commit, Txn: 5, Node: 1, Steps: write, Preds: []txn.ID{4}})        // seq 5
	app(Record{Kind: Commit, Txn: 6, Node: 1, Preds: make([]txn.ID, 30)})               // seq 6
	l.Crash(0.5)

	raw, err := os.ReadFile(filepath.Join(dir, nodeFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := scanPrefix(raw[fileHeaderLen:]); len(recs) != 2 || recs[1].Seq != 5 {
		t.Fatalf("setup: node 1 holds %+v on disk, want seq 2 and an intact seq 5", recs)
	}

	check := func(when string) {
		t.Helper()
		scans, err := Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for _, sc := range scans {
			for _, r := range sc.Records {
				seqs = append(seqs, r.Seq)
			}
		}
		if len(seqs) != 3 {
			t.Fatalf("%s: Scan kept seqs %v, want 1, 3 (node 0) and 2 (node 1)", when, seqs)
		}
		rec, err := Replay(scans, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := []txn.ID{1, 3, 2}; !slices.Equal(rec.Committed, want) {
			t.Fatalf("%s: Replay committed %v, want %v", when, rec.Committed, want)
		}
	}
	check("after the crash")
	scans, _ := Scan(dir)
	if scans[1].TruncatedBytes < int64(frameLen(Record{Kind: Commit})) {
		t.Fatalf("Scan reports %d ignored bytes on node 1, want at least the dropped commit frame", scans[1].TruncatedBytes)
	}

	l2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("after reopening") // the cut is now physical
	if err := l2.Append(Record{Kind: Commit, Txn: 7, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	scans, err = Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(scans[0].Records); n != 3 || scans[0].Records[2].Seq != 4 {
		t.Fatalf("append after reopening: node 0 holds %+v, want a third record numbered 4", scans[0].Records)
	}
	if len(scans[1].Records) != 1 || scans[0].TruncatedBytes+scans[1].TruncatedBytes != 0 {
		t.Fatalf("after reopen+close: node 1 holds %d records, %d+%d bytes still ignored",
			len(scans[1].Records), scans[0].TruncatedBytes, scans[1].TruncatedBytes)
	}
}

// TestSyncAfterCloseCoveredIsNil: a committer that appended before Close
// and calls Sync after it is covered by Close's own final pass — its
// record is durable, so Sync must say so. An append-less Sync on a
// closed log is covered trivially; records the log lost (Crash) are not.
func TestSyncAfterCloseCoveredIsNil(t *testing.T) {
	l, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: Commit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close, record covered by Close's pass: %v", err)
	}

	l, err = Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: Commit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	l.Crash(0)
	if _, err := l.Sync(); err == nil {
		t.Fatal("Sync on a crashed log reported a lost record durable")
	}
}

// FuzzScanPrefix feeds arbitrary bytes to the frame decoder: it must not
// panic, the prefix it accepts must re-encode to exactly the bytes it
// consumed, and the records must come out in non-decreasing sequence
// order. The seed corpus is TestRecordRoundTrip's record generator, so
// plain `go test` runs it.
func FuzzScanPrefix(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 6; n++ {
		var stream []byte
		for i := 0; i < n*3; i++ {
			r := randRecord(rng)
			r.Seq = uint64(i + 1)
			stream, _ = appendRecord(stream, r)
		}
		f.Add(stream)
		if len(stream) > 9 {
			f.Add(stream[:len(stream)-9]) // torn tail
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, valid, _ := scanPrefix(b)
		var again []byte
		var last uint64
		for _, r := range recs {
			if r.Seq < last {
				t.Fatalf("sequence %d after %d", r.Seq, last)
			}
			last = r.Seq
			var err error
			if again, err = appendRecord(again, r); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
		if valid > len(b) || !bytes.Equal(again, b[:valid]) {
			t.Fatalf("valid prefix of %d bytes re-encodes to %d different bytes", valid, len(again))
		}
	})
}

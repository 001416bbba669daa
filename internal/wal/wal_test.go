package wal

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"batsched/internal/event"
	"batsched/internal/txn"
)

func randRecord(rng *rand.Rand) Record {
	r := Record{
		Kind: Commit,
		Txn:  txn.ID(1 + rng.Int63n(1_000_000)),
		Node: rng.Intn(64),
		At:   event.Time(rng.Int63n(10_000_000)),
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		r.Steps = append(r.Steps, StepRef{
			Part:     txn.PartitionID(rng.Intn(256)),
			Mode:     txn.Mode(rng.Intn(2)),
			Declared: math.Trunc(rng.Float64()*1000) / 8,
		})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		r.Preds = append(r.Preds, txn.ID(1+rng.Int63n(1_000_000)))
	}
	return r
}

// TestRecordRoundTrip is the encode/decode property test: random
// records survive a frame round trip exactly, alone and concatenated.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		want := randRecord(rng)
		want.Seq = rng.Uint64()
		buf, err := appendRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n != len(buf) || n != frameLen(want) {
			t.Fatalf("record %d: consumed %d of %d bytes, frameLen %d", i, n, len(buf), frameLen(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Concatenated stream round trip.
	var stream []byte
	var want []Record
	for i := 0; i < 200; i++ {
		r := randRecord(rng)
		r.Seq = uint64(i + 1)
		want = append(want, r)
		var err error
		if stream, err = appendRecord(stream, r); err != nil {
			t.Fatal(err)
		}
	}
	got, valid, stop := scanPrefix(stream)
	if stop != nil || valid != len(stream) {
		t.Fatalf("clean stream: stop=%v valid=%d/%d", stop, valid, len(stream))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stream round trip mismatch")
	}
}

// TestCorruptionFuzz flips random bits and truncates random tails over a
// valid stream: the scan must never return garbage — every decoded
// record is one of the originals, in order, and truncation always
// recovers the longest valid prefix.
func TestCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var stream []byte
	var offsets []int // frame start offsets
	var want []Record
	for i := 0; i < 60; i++ {
		r := randRecord(rng)
		offsets = append(offsets, len(stream))
		want = append(want, r)
		var err error
		if stream, err = appendRecord(stream, r); err != nil {
			t.Fatal(err)
		}
	}
	prefixLen := func(pos int) (frames, bytes int) {
		for i, off := range offsets {
			end := len(stream)
			if i+1 < len(offsets) {
				end = offsets[i+1]
			}
			if pos < end {
				return i, off
			}
		}
		return len(want), len(stream)
	}
	boundary := make(map[int]bool, len(offsets))
	for _, off := range offsets {
		boundary[off] = true
	}
	for trial := 0; trial < 3000; trial++ {
		b := append([]byte(nil), stream...)
		pos := rng.Intn(len(b))
		torn := rng.Intn(2) == 1
		if torn {
			b = b[:pos] // torn tail
		} else {
			b[pos] ^= 1 << rng.Intn(8) // bit flip
		}
		minFrames, minBytes := prefixLen(pos)
		recs, valid, stop := scanPrefix(b)
		if stop == nil && !(torn && boundary[pos]) {
			// Only a truncation exactly at a frame boundary may scan
			// clean; a bit flip never does (CRC32 catches every
			// single-bit error).
			t.Fatalf("trial %d: damaged stream at %d scanned clean", trial, pos)
		}
		if len(recs) != minFrames || valid != minBytes {
			t.Fatalf("trial %d: damage at %d: got %d frames/%d bytes, want %d/%d",
				trial, pos, len(recs), valid, minFrames, minBytes)
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("trial %d: surviving record %d mutated", trial, i)
			}
		}
	}
}

// TestOpenTruncatesTornTail writes records, crashes with a partial
// flush, and reopens: the reopened log must contain exactly the synced
// prefix, and appending must continue cleanly after the truncation.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	synced := []Record{
		{Kind: Commit, Txn: 1, Node: 0, At: 10, Preds: []txn.ID{9}},
		{Kind: Commit, Txn: 2, Node: 1, At: 20},
		{Kind: Commit, Txn: 4, Node: 0, At: 30, Preds: []txn.ID{1}},
	}
	for _, r := range synced {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// These never sync; Crash writes a partial prefix of them.
	l.Append(Record{Kind: Commit, Txn: 3, Node: 0, At: 40})
	l.Append(Record{Kind: Commit, Txn: 5, Node: 1, At: 41})
	l.Crash(0.5)

	scans, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	var torn int64
	for _, sc := range scans {
		got = append(got, sc.Records...)
		torn += sc.TruncatedBytes
	}
	if len(got) != len(synced) {
		t.Fatalf("recovered %d records, want %d (synced prefix only): %+v", len(got), len(synced), got)
	}
	if torn == 0 {
		t.Fatal("Crash(0.5) left no torn tail to truncate")
	}

	// Reopen for appending: the torn tail must be gone and new appends
	// must land after the valid prefix.
	l2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Kind: Commit, Txn: 6, Node: 0, At: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("reopen reported no truncated bytes")
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	scans, err = Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	for _, sc := range scans {
		got = append(got, sc.Records...)
		if sc.TruncatedBytes != 0 {
			t.Fatalf("node %d still torn after reopen+close", sc.Node)
		}
	}
	if len(got) != len(synced)+1 {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(synced)+1)
	}
}

// TestGroupCommit hammers Append+Sync from many goroutines and checks
// that syncs batched: strictly fewer fsync passes than records, with
// every record durable at the end.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stretch each fsync pass so concurrent writers pile up behind it —
	// otherwise a single-core host can serialize every Append+Sync pair
	// and no batch ever forms.
	l.syncHook = func() { time.Sleep(200 * time.Microsecond) }
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := txn.ID(1 + w*perWriter + i)
				if err := l.Append(Record{Kind: Commit, Txn: id, Node: int(id) % 4, At: event.Time(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter || st.SyncedRecords != writers*perWriter {
		t.Fatalf("appends %d synced %d, want %d", st.Appends, st.SyncedRecords, writers*perWriter)
	}
	if st.Syncs >= writers*perWriter {
		t.Fatalf("no group commit: %d fsync passes for %d records", st.Syncs, writers*perWriter)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("max batch %d, expected some pass to carry multiple records", st.MaxBatch)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scans, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sc := range scans {
		n += len(sc.Records)
	}
	if n != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", n, writers*perWriter)
	}
}

// TestReplayWaves pins the wave schedule on a known DAG:
//
//	1   2     (wave 0)
//	|\ /|
//	3 4 5     (wave 1: 3←1, 4←1,2, 5←2)
//	 \|
//	  6       (wave 2: 6←3,4)
//
// where 6 also names a predecessor 8 that left no Commit record (it
// aborted or was in flight): a transaction with no record imposes no
// order, and none of them is replayed.
func TestReplayWaves(t *testing.T) {
	mk := func(id txn.ID, node int, preds ...txn.ID) Record {
		return Record{Kind: Commit, Txn: id, Node: node, At: event.Time(id) + 100, Preds: preds}
	}
	recs := []Record{mk(1, 0), mk(2, 1), mk(3, 0, 1), mk(4, 1, 1, 2), mk(5, 2, 2), mk(6, 2, 3, 4, 8)}
	scans := []NodeScan{{Node: 0, Records: recs}}

	var mu sync.Mutex
	applied := map[txn.ID]int{}
	rec, err := Replay(scans, 4, func(c Record, wave int) {
		mu.Lock()
		applied[c.Txn] = wave
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	wantWave := map[txn.ID]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2}
	if !reflect.DeepEqual(rec.Wave, wantWave) {
		t.Fatalf("waves %v, want %v", rec.Wave, wantWave)
	}
	if !reflect.DeepEqual(applied, wantWave) {
		t.Fatalf("applied %v, want %v", applied, wantWave)
	}
	if rec.Waves != 3 || rec.MaxParallel != 3 {
		t.Fatalf("Waves=%d MaxParallel=%d, want 3/3", rec.Waves, rec.MaxParallel)
	}
	if want := []txn.ID{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(rec.Committed, want) {
		t.Fatalf("Committed %v, want %v", rec.Committed, want)
	}
	// 6's record names 8: a run that numbers its transactions above
	// MaxID must not give 8 to a new transaction, or 6's logged
	// dependency would point at it.
	if rec.MaxID != 8 {
		t.Fatalf("MaxID %v, want T8, the highest id the log names", rec.MaxID)
	}
}

// TestReplayRejectsCorruptHistories covers the structural error paths:
// a record of a kind the grammar does not hold (the retired Begin, or
// the value Abort had), a second Commit record for one transaction, and
// a cycle among committed records.
func TestReplayRejectsCorruptHistories(t *testing.T) {
	const abortKind = Kind(3)
	cases := []struct {
		name string
		recs []Record
	}{
		{"abort without begin", []Record{{Kind: abortKind, Txn: 1}}},
		{"duplicate begin", []Record{{Kind: Begin, Txn: 1}, {Kind: Begin, Txn: 1}}},
		{"duplicate commit", []Record{{Kind: Commit, Txn: 1}, {Kind: Commit, Txn: 1}}},
		{"commit and abort", []Record{{Kind: Commit, Txn: 1}, {Kind: abortKind, Txn: 1}}},
		{"cycle", []Record{
			{Kind: Commit, Txn: 1, Preds: []txn.ID{2}},
			{Kind: Commit, Txn: 2, Preds: []txn.ID{1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Replay([]NodeScan{{Records: tc.recs}}, 1, nil); err == nil {
				t.Fatal("Replay accepted a corrupt history")
			}
		})
	}
}

// TestOpenRejectsForeignFile ensures a file that is not a log of this
// grammar is an error, not a silent truncate-to-zero: neither foreign
// bytes nor a log in the previous format, whose first frame — a Begin
// record — would otherwise read as a corrupt tail and be cut away.
func TestOpenRejectsForeignFile(t *testing.T) {
	parent := append([]byte("BATWAL2\n"), 0, 0, 0, 0)
	parent, err := appendRecord(parent, Record{Kind: Begin, Seq: 1, Txn: 1, Steps: []StepRef{{Part: 0, Mode: txn.Write}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"foreign":       []byte("definitely not a WAL file"),
		"parent format": parent,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, nodeFileName(0))
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, 1); err == nil || !strings.Contains(err.Error(), "magic") {
				t.Fatalf("Open: %v, want an error naming the magic", err)
			}
			if _, err := Scan(dir); err == nil || !strings.Contains(err.Error(), "magic") {
				t.Fatalf("Scan: %v, want an error naming the magic", err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != int64(len(content)) {
				t.Fatalf("Open left the file at %d bytes, want it untouched at %d", info.Size(), len(content))
			}
		})
	}
}

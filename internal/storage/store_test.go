package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"batsched/internal/txn"
	"batsched/internal/wal"
)

func mustOpen(t *testing.T, dir string, parts int, opts ...Option) *Store {
	t.Helper()
	st, err := Open(dir, parts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRoundTrip inserts across page boundaries, then closes and
// reopens: every tuple must come back intact — by Scan and by the Get
// probe — from disk with a cold pool.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 2, WithPageSize(512), WithPoolFrames(4))
	type rec struct {
		rid RecordID
		val []byte
	}
	live := map[string]rec{}
	for i := 0; i < 200; i++ {
		val := []byte(fmt.Sprintf("tuple-%03d-%s", i, string(bytes.Repeat([]byte{'x'}, i%40))))
		rid, err := st.Insert(0, val)
		if err != nil {
			t.Fatal(err)
		}
		live[fmt.Sprintf("%d/%d", rid.Page, rid.Slot)] = rec{rid, val}
	}
	if st.NumPages(0) < 2 {
		t.Fatalf("expected multiple pages, got %d", st.NumPages(0))
	}
	check := func(s *Store) {
		t.Helper()
		got := map[string][]byte{}
		it := s.Scan(0)
		for {
			tup, rid, ok := it.Next()
			if !ok {
				break
			}
			// Next yields zero-copy slices aliasing the pinned frame;
			// retention requires a copy.
			got[fmt.Sprintf("%d/%d", rid.Page, rid.Slot)] = append([]byte(nil), tup...)
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(live) {
			t.Fatalf("scan found %d tuples, want %d", len(got), len(live))
		}
		for k, r := range live {
			if !bytes.Equal(got[k], r.val) {
				t.Fatalf("tuple at %s diverged", k)
			}
			if tup, ok, err := s.Get(0, r.rid); err != nil || !ok || !bytes.Equal(tup, r.val) {
				t.Fatalf("Get(%v) = %q, %v, %v", r.rid, tup, ok, err)
			}
		}
		if _, ok, err := s.Get(0, RecordID{Page: s.NumPages(0), Slot: 0}); ok || err != nil {
			t.Fatalf("Get past the last page: ok=%v err=%v", ok, err)
		}
		if n, err := s.ScanCount(1); err != nil || n != 0 {
			t.Fatalf("untouched partition: n=%d err=%v", n, err)
		}
	}
	check(st)
	if st.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after scans", st.PinnedFrames())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, 2, WithPageSize(512), WithPoolFrames(4))
	defer st2.Close()
	if st2.TornPages() != 0 {
		t.Fatalf("clean shutdown reported %d torn pages", st2.TornPages())
	}
	check(st2)
}

// TestTornPageRecoverRestart corrupts heap files by hand — a partial
// trailing page, a bit-flipped tail page, and a bit-flipped interior
// page — and checks Open's recovery: tail damage truncated, interior
// damage reinitialized empty, valid pages untouched.
func TestTornPageRecoverRestart(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 1, WithPageSize(512))
	var want [][]byte
	for i := 0; i < 40; i++ {
		v := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if _, err := st.Insert(0, v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	npages := st.NumPages(0)
	if npages < 4 {
		t.Fatalf("need >=4 pages for this test, got %d", npages)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "part-0000.heap")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interior page 1: flip one bit.
	one := []byte{0}
	if _, err := f.ReadAt(one, 512+100); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x10
	if _, err := f.WriteAt(one, 512+100); err != nil {
		t.Fatal(err)
	}
	// Last full page: zero its header (checksum gone).
	if _, err := f.WriteAt(make([]byte, 32), int64(npages-1)*512); err != nil {
		t.Fatal(err)
	}
	// Append a partial page — a write cut off mid-flight.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAB}, 137), int64(npages)*512); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpen(t, dir, 1, WithPageSize(512))
	defer st2.Close()
	// Three casualties: the partial tail, the invalid last page
	// (truncated), the interior page (reinitialized).
	if st2.TornPages() != 3 {
		t.Fatalf("TornPages=%d, want 3", st2.TornPages())
	}
	if got := st2.NumPages(0); got != npages-1 {
		t.Fatalf("pages after recovery=%d, want %d", got, npages-1)
	}
	// Interior page must read as a valid, empty page; other survivors keep
	// their tuples.
	seen := map[string]bool{}
	it := st2.Scan(0)
	for {
		tup, rid, ok := it.Next()
		if !ok {
			break
		}
		if rid.Page == 1 {
			t.Fatalf("reinitialized page 1 still holds tuples")
		}
		seen[string(tup)] = true
	}
	it.Close()
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("recovery destroyed every page")
	}
	for _, v := range want {
		_ = v // survivors checked structurally above; content spot-check:
	}
	if !seen[string(want[0])] {
		t.Fatal("page-0 tuple lost though page 0 was undamaged")
	}
}

// mkCommit builds a WAL Commit record with the given write footprint.
func mkCommit(id txn.ID, parts ...txn.PartitionID) wal.Record {
	r := wal.Record{Kind: wal.Commit, Txn: id}
	for _, p := range parts {
		r.Steps = append(r.Steps, wal.StepRef{Part: p, Mode: txn.Write, Declared: 1})
	}
	return r
}

// expectedKeys derives the partition contents implied by a committed
// set — the pure function the effect model promises.
func expectedKeys(commits []wal.Record, part txn.PartitionID) map[EffectKey]bool {
	want := map[EffectKey]bool{}
	for _, b := range commits {
		for i, s := range b.Steps {
			if s.Mode == txn.Write && s.Part == part {
				want[EffectKey{Txn: b.Txn, Step: i}] = true
			}
		}
	}
	return want
}

// TestStoreCrashRedoRoundTrip commits transactions through the staging
// path, crashes with a mid-flush tear, reopens, replays redo from the
// committed set, and requires the final contents to equal the pure
// function of that committed set.
func TestStoreCrashRedoRoundTrip(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 0.7, 1} {
		t.Run(fmt.Sprintf("frac=%v", frac), func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8))
			var committed []wal.Record
			for i := 0; i < 30; i++ {
				id := txn.ID(i + 1)
				parts := []txn.PartitionID{txn.PartitionID(i % 4), txn.PartitionID((i + 1) % 4)}
				for step, p := range parts {
					st.Stage(id, step, p)
				}
				if i%5 == 4 { // every fifth transaction aborts
					st.Drop(id)
					continue
				}
				if err := st.ApplyCommit(id); err != nil {
					t.Fatal(err)
				}
				// Commit only dirties cached pages; write them so the crash
				// below has un-fsynced page writes to tear.
				for _, p := range parts {
					if err := st.FlushPartition(p); err != nil {
						t.Fatal(err)
					}
				}
				committed = append(committed, mkCommit(id, parts...))
			}
			if err := st.Crash(frac); err != nil {
				t.Fatal(err)
			}

			st2 := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8))
			defer st2.Close()
			if frac < 1 && st2.TornPages() == 0 {
				t.Fatalf("frac=%v tore nothing — crash model is vacuous", frac)
			}
			for _, b := range committed {
				if err := st2.Redo(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := st2.Flush(); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 4; p++ {
				part := txn.PartitionID(p)
				got, err := st2.Keys(part)
				if err != nil {
					t.Fatal(err)
				}
				want := expectedKeys(committed, part)
				if len(got) != len(want) {
					t.Fatalf("P%d: %d effects, want %d", p, len(got), len(want))
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("P%d: missing effect %+v after redo", p, k)
					}
				}
			}
			// Redo must be idempotent: a second full replay changes nothing.
			before, _ := st2.ScanCount(0)
			st3 := st2
			for _, b := range committed {
				if err := st3.Redo(b); err != nil {
					t.Fatal(err)
				}
			}
			after, _ := st3.ScanCount(0)
			if before != after {
				t.Fatalf("second redo pass grew P0 from %d to %d tuples", before, after)
			}
		})
	}
}

// FuzzRedo: whatever footprints a log's Commit records carry — reads,
// repeated partitions, one transaction logged twice — redoing them leaves
// exactly their write effects, once each, and redoing them again changes
// nothing, in the same session or after a reopen.
func FuzzRedo(f *testing.F) {
	f.Add([]byte{1, 0x13, 0x02, 2, 0x11, 0x11, 1, 0x10})
	f.Add([]byte{7, 0x00, 7, 0x12, 0x03})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const parts = 4
		// A byte below 0x10 opens the Commit record of that transaction
		// (+1); any other byte adds a step to it: low bits the partition,
		// bit 4 a write.
		var commits []wal.Record
		for _, b := range tape {
			if b < 0x10 {
				commits = append(commits, wal.Record{Txn: txn.ID(b) + 1})
			} else if n := len(commits); n > 0 {
				mode := txn.Read
				if b&0x10 != 0 {
					mode = txn.Write
				}
				commits[n-1].Steps = append(commits[n-1].Steps, wal.StepRef{Part: txn.PartitionID(b % parts), Mode: mode})
			}
		}
		dir := t.TempDir()
		st := mustOpen(t, dir, parts, WithPageSize(512), WithPoolFrames(4))
		defer func() { st.Close() }()
		redoAll := func() (counts [parts]int) {
			for _, b := range commits {
				if err := st.Redo(b); err != nil {
					t.Fatal(err)
				}
			}
			for p := range counts {
				n, err := st.ScanCount(txn.PartitionID(p))
				if err != nil {
					t.Fatal(err)
				}
				counts[p] = n
			}
			return counts
		}
		first := redoAll()
		for p := 0; p < parts; p++ {
			got, err := st.Keys(txn.PartitionID(p))
			if err != nil {
				t.Fatal(err)
			}
			if want := expectedKeys(commits, txn.PartitionID(p)); !reflect.DeepEqual(got, want) || first[p] != len(want) {
				t.Fatalf("P%d: %d tuples with keys %v, want exactly %v", p, first[p], got, want)
			}
		}
		for _, reopen := range []bool{false, true} {
			if reopen {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st = mustOpen(t, dir, parts, WithPageSize(512), WithPoolFrames(4))
			}
			if again := redoAll(); again != first {
				t.Fatalf("redoing again (after a reopen: %v) changed the tuple counts %v → %v", reopen, first, again)
			}
		}
	})
}

// TestStoreWALReplayRedo drives Redo through the real wal.Replay
// machinery: committed records forced to a WAL, crash both, scan the
// WAL, replay with Store.Redo as the apply callback.
func TestStoreWALReplayRedo(t *testing.T) {
	dir := t.TempDir()
	wdir := filepath.Join(dir, "wal")
	l, err := wal.Open(wdir, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, filepath.Join(dir, "heap"), 4, WithPageSize(512))
	var commits []wal.Record
	for i := 0; i < 20; i++ {
		id := txn.ID(i + 1)
		part := txn.PartitionID(i % 4)
		c := mkCommit(id, part)
		c.Node = i % 2
		commits = append(commits, c)
		st.Stage(id, 0, part)
		if err := l.Append(c); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Sync(); err != nil { // WAL force precedes the page apply
			t.Fatal(err)
		}
		if err := st.ApplyCommit(id); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash(0.4)
	if err := st.Crash(0.4); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, filepath.Join(dir, "heap"), 4, WithPageSize(512))
	defer st2.Close()
	scans, err := wal.Scan(wdir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 2, func(b wal.Record, wave int) {
		if err := st2.Redo(b); err != nil {
			t.Errorf("redo txn %d: %v", b.Txn, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != len(commits) {
		t.Fatalf("recovered %d committed, want %d", len(rec.Committed), len(commits))
	}
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		part := txn.PartitionID(p)
		got, err := st2.Keys(part)
		if err != nil {
			t.Fatal(err)
		}
		want := expectedKeys(commits, part)
		if len(got) != len(want) {
			t.Fatalf("P%d: %d effects after WAL replay, want %d", p, len(got), len(want))
		}
	}
}

// TestStoreDeadSlotFromDisk opens a heap file whose one page carries a
// dead slot between two live tuples (killSlot: valid on-disk input that
// no code path here produces). Open keeps the page, Scan and ScanCount
// skip the dead slot, Get reports it absent, and an insert goes to a fresh
// page — what was on disk before the session is never rewritten.
func TestStoreDeadSlotFromDisk(t *testing.T) {
	dir := t.TempDir()
	buf := make([]byte, 512)
	p := InitPage(buf, 0)
	for _, tup := range []string{"first", "dead", "third"} {
		if _, ok := p.Insert([]byte(tup)); !ok {
			t.Fatal("setup insert failed")
		}
	}
	killSlot(p, 1)
	p.Seal()
	if err := os.WriteFile(filepath.Join(dir, "part-0000.heap"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, dir, 1, WithPageSize(512), WithPoolFrames(4))
	defer st.Close()
	if st.TornPages() != 0 || st.NumPages(0) != 1 {
		t.Fatalf("torn %d pages %d, want the page kept", st.TornPages(), st.NumPages(0))
	}
	rid, err := st.Insert(0, []byte("fourth"))
	if err != nil || rid != (RecordID{Page: 1, Slot: 0}) {
		t.Fatalf("Insert landed at %v (%v), want a fresh page", rid, err)
	}
	var got []string
	it := st.Scan(0)
	for {
		tup, _, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, string(tup))
	}
	it.Close()
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "third", "fourth"}; !reflect.DeepEqual(got, want) {
		t.Errorf("scan %q, want %q", got, want)
	}
	if n, err := st.ScanCount(0); err != nil || n != 3 {
		t.Errorf("ScanCount %d (%v), want 3", n, err)
	}
	if _, ok, err := st.Get(0, RecordID{Page: 0, Slot: 1}); ok || err != nil {
		t.Errorf("Get of the dead slot: ok=%v err=%v", ok, err)
	}
}

// TestStoreOpenValidation covers the option guard rails.
func TestStoreOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if _, err := Open(t.TempDir(), 1, WithPageSize(64)); err == nil {
		t.Fatal("tiny page size accepted")
	}
	if _, err := Open(t.TempDir(), 1, WithPoolFrames(1)); err == nil {
		t.Fatal("1-frame pool accepted")
	}
	st := mustOpen(t, t.TempDir(), 1)
	defer st.Close()
	if _, err := st.Insert(5, []byte("x")); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// TestStoreCrashRedoFlusherLag extends the crash battery to the
// background-flusher window the write-ahead contract leaves open: the
// WAL commit record is forced (modelled here by the caller's committed
// list), ApplyCommit has mutated cached pages, but the flusher has not
// written them back yet when the process dies. Reopen + Redo must
// converge to the committed set from the WAL alone.
func TestStoreCrashRedoFlusherLag(t *testing.T) {
	commitLoad := func(t *testing.T, st *Store) []wal.Record {
		t.Helper()
		var committed []wal.Record
		for i := 0; i < 30; i++ {
			id := txn.ID(i + 1)
			parts := []txn.PartitionID{txn.PartitionID(i % 4), txn.PartitionID((i + 1) % 4)}
			for step, p := range parts {
				st.Stage(id, step, p)
			}
			if i%5 == 4 {
				st.Drop(id)
				continue
			}
			if err := st.ApplyCommit(id); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, mkCommit(id, parts...))
		}
		return committed
	}
	verify := func(t *testing.T, st2 *Store, committed []wal.Record) {
		t.Helper()
		for _, b := range committed {
			if err := st2.Redo(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st2.Flush(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			part := txn.PartitionID(p)
			got, err := st2.Keys(part)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedKeys(committed, part)
			if len(got) != len(want) {
				t.Fatalf("P%d: %d effects, want %d", p, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("P%d: missing effect %+v after redo", p, k)
				}
			}
		}
	}

	t.Run("flusher-never-ran", func(t *testing.T) {
		// An hour-long interval: the kill lands strictly between the
		// commit apply and the first flusher pass. Only eviction
		// write-backs can have reached disk, and frac=0 tears them all.
		dir := t.TempDir()
		st := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8),
			WithBackgroundFlush(time.Hour))
		committed := commitLoad(t, st)
		if f := st.Stats().Flushes; f != 0 {
			t.Fatalf("flusher ran %d times despite the hour interval", f)
		}
		if err := st.Crash(0); err != nil {
			t.Fatal(err)
		}
		st2 := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8))
		defer st2.Close()
		verify(t, st2, committed)
	})

	t.Run("flusher-racing", func(t *testing.T) {
		// A microsecond-scale interval with a grace sleep: some pages
		// reach disk via the flusher, the kill tears half of what was
		// written. Redo must still converge.
		dir := t.TempDir()
		st := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8),
			WithBackgroundFlush(200*time.Microsecond))
		committed := commitLoad(t, st)
		time.Sleep(5 * time.Millisecond) // let the flusher catch some dirty pages
		if err := st.Crash(0.5); err != nil {
			t.Fatal(err)
		}
		st2 := mustOpen(t, dir, 4, WithPageSize(512), WithPoolFrames(8))
		defer st2.Close()
		verify(t, st2, committed)
	})
}

// TestScanZeroCopyAliasing pins down the zero-copy contract: tuples
// returned by Next alias the pinned frame (no per-record copy), and the
// pin accounting turns frame-recycling misuse into a panic instead of
// silent corruption of aliased records.
func TestScanZeroCopyAliasing(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 1, WithPageSize(512))
	defer st.Close()
	want := []byte("aliased-tuple-content")
	if _, err := st.Insert(0, want); err != nil {
		t.Fatal(err)
	}

	t.Run("alias-not-copy", func(t *testing.T) {
		it := st.Scan(0)
		defer it.Close()
		tup, _, ok := it.Next()
		if !ok {
			t.Fatal("scan yielded nothing")
		}
		if !bytes.Equal(tup, want) {
			t.Fatalf("tuple diverged: %q", tup)
		}
		off := bytes.Index(it.fr.buf, want)
		if off < 0 {
			t.Fatal("tuple bytes not found in the pinned frame — Next copied")
		}
		it.fr.buf[off] ^= 0xFF // mutate the frame under the pin…
		if bytes.Equal(tup, want) {
			t.Fatal("yielded tuple did not alias the frame")
		}
		it.fr.buf[off] ^= 0xFF
	})

	t.Run("copy-survives-close", func(t *testing.T) {
		it := st.Scan(0)
		tup, _, ok := it.Next()
		if !ok {
			t.Fatal("scan yielded nothing")
		}
		kept := append([]byte(nil), tup...)
		it.Close()
		if !bytes.Equal(kept, want) {
			t.Fatal("copied tuple did not survive Close")
		}
	})

	t.Run("unpin-misuse-panics", func(t *testing.T) {
		it := st.Scan(0)
		if _, _, ok := it.Next(); !ok {
			t.Fatal("scan yielded nothing")
		}
		// Misuse: release the iterator's pin out from under it. The
		// aliased record is now one eviction away from dangling — the
		// iterator's own Close must trip the pin accounting.
		st.poolOf(0).Unpin(it.fr, false)
		defer func() {
			if recover() == nil {
				t.Fatal("Close after external Unpin did not panic — misuse would dangle aliased records silently")
			}
		}()
		it.Close()
	})
}

// TestReopenedHeapIsExtendedNotRefilled: tuples that were on disk before
// the session began may have no log record behind them (a bulk load),
// and a crash can tear any page the session wrote. Insert must therefore
// leave a reopened file's pages alone — even a half-empty tail — so that
// tearing every page of the session loses none of the old tuples.
func TestReopenedHeapIsExtendedNotRefilled(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 1, WithPageSize(512), WithPoolFrames(4))
	old := map[EffectKey]bool{}
	for i := 0; i < 3; i++ { // a partial page
		k := EffectKey{Txn: txn.ID(1000 + i)}
		old[k] = true
		if _, err := st.Insert(0, EncodeEffect(k.Txn, 0, 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir, 1, WithPageSize(512), WithPoolFrames(4))
	for i := 0; i < 20; i++ {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(1+i), 0, 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Crash(0); err != nil { // every page written this session tears
		t.Fatal(err)
	}

	st = mustOpen(t, dir, 1, WithPageSize(512), WithPoolFrames(4))
	defer st.Close()
	if st.TornPages() == 0 {
		t.Fatal("setup: Crash(0) tore nothing")
	}
	got, err := st.Keys(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range old {
		if !got[k] {
			t.Fatalf("tuple %v, on disk before the session, was lost to a page the session rewrote", k.Txn)
		}
	}
}

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"batsched/internal/txn"
)

// countIO counts what the pools ask of the backend, so a test can hold
// PoolStats.Misses and ReadCalls against what was actually served.
type countIO struct {
	pageIO
	pages, calls int
}

func (c *countIO) readPages(k pageKey, bufs [][]byte, sc *readScratch) error {
	c.calls++
	c.pages += len(bufs)
	return c.pageIO.readPages(k, bufs, sc)
}

// openOneStripe opens a one-partition-file-per-part store whose single
// pool is one stripe of the given frame count behind a counting backend.
func openOneStripe(t *testing.T, dir string, parts, frames int) (*Store, *countIO) {
	t.Helper()
	st := mustOpen(t, dir, parts, WithPageSize(512), WithPoolFrames(frames))
	io := &countIO{pageIO: st}
	coldPool(st, io, frames)
	return st, io
}

// fillPages inserts distinguishable tuples until part has at least pages
// pages, flushes them, and returns the tuple count.
func fillPages(t *testing.T, st *Store, part txn.PartitionID, pages uint32) int {
	t.Helper()
	n := 0
	for st.NumPages(part) < pages {
		tup := bytes.Repeat([]byte{byte('a' + n%26)}, 90+n%30)
		if _, err := st.Insert(part, tup); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return n
}

// coldPool replaces the store's pool by an empty one of the same shape,
// so the next access of every page is a miss.
func coldPool(st *Store, io pageIO, frames int) {
	st.pools[0] = newPoolStriped(io, frames, st.pageSize, 1)
}

// checkIndex asserts the run index's invariants on a quiet pool: every
// indexed frame is valid, knows its entry, sits in the slot its key
// names and belongs to the stripe; entries count their residents and are
// never empty; a frame is valid exactly when indexed; nothing is pinned.
func checkIndex(t *testing.T, st *Store) {
	t.Helper()
	for _, p := range st.pools {
		for _, s := range p.stripes {
			s.mu.Lock()
			owned := map[*Frame]bool{}
			for _, f := range s.frames {
				owned[f] = true
				if f.valid != (f.run != nil) {
					t.Errorf("frame of %v page %d: valid=%v but indexed=%v", f.key.part, f.key.page, f.valid, f.run != nil)
				}
				if f.pins != 0 {
					t.Errorf("frame of %v page %d still has %d pins", f.key.part, f.key.page, f.pins)
				}
			}
			for rk, e := range s.runs {
				n := 0
				for i, f := range e.slots {
					if f == nil {
						continue
					}
					n++
					want := pageKey{rk.part, rk.run*runPages + uint32(i)}
					if !f.valid || f.run != e || f.key != want || !owned[f] {
						t.Errorf("run %v slot %d holds frame %+v (valid=%v, owned=%v), want a valid frame of %+v", rk, i, f.key, f.valid, owned[f], want)
					}
				}
				if n == 0 || n != e.n {
					t.Errorf("run %v: entry counts %d residents, holds %d", rk, e.n, n)
				}
			}
			s.mu.Unlock()
		}
	}
	if n := st.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames() = %d on a quiet store", n)
	}
}

// refScan is the page-at-a-time scan the run primitive replaced, built
// from Pool.Get and Unpin only: the reference of the differential test.
func refScan(st *Store, part txn.PartitionID, yield func(tup []byte, rid RecordID)) error {
	pool := st.poolOf(part)
	for pg := uint32(0); pg < st.NumPages(part); pg++ {
		fr, err := pool.Get(pageKey{part, pg}, false)
		if err != nil {
			return err
		}
		p := fr.Page()
		for s := 0; s < p.NumSlots(); s++ {
			if tup, ok := p.Get(s); ok {
				yield(tup, RecordID{Page: pg, Slot: s})
			}
		}
		pool.Unpin(fr, false)
	}
	return nil
}

// TestRunDifferential drives a seeded random mix of ScanCount, Scan,
// point Get, Insert and FlushPartition against a store and against a
// page-at-a-time reference on an identical store (same frames, one
// stripe). Both must return the same tuples; the store's Hits+Misses must
// equal the pages requested (the reference's, which makes one Get per
// page), its Misses the pages its backend served, and no frame may stay
// pinned after any operation. A cold scan reads its pages runPages to a
// call.
func TestRunDifferential(t *testing.T) {
	const parts, frames = 3, 40
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st, io := openOneStripe(t, t.TempDir(), parts, frames)
			defer st.Close()
			ref, refIO := openOneStripe(t, t.TempDir(), parts, frames)
			defer ref.Close()
			rng := rand.New(rand.NewSource(seed))
			var rids [parts][]RecordID
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
			}
			for op := 0; op < 400; op++ {
				part := txn.PartitionID(rng.Intn(parts))
				switch k := rng.Intn(10); {
				case k < 4 || len(rids[part]) == 0: // Insert, in bursts so files span several runs
					for i := rng.Intn(40); i >= 0; i-- {
						tup := make([]byte, 20+rng.Intn(200))
						rng.Read(tup)
						a, errA := st.Insert(part, tup)
						b, errB := ref.Insert(part, tup)
						if errA != nil || errB != nil || a != b {
							fail("op %d: Insert gave %v (%v), reference %v (%v)", op, a, errA, b, errB)
						}
						rids[part] = append(rids[part], a)
					}
				case k < 6: // ScanCount
					a, errA := st.ScanCount(part)
					b := 0
					errB := refScan(ref, part, func([]byte, RecordID) { b++ })
					if errA != nil || errB != nil || a != b || a != len(rids[part]) {
						fail("op %d: ScanCount(%v) = %d (%v), reference %d (%v), inserted %d", op, part, a, errA, b, errB, len(rids[part]))
					}
				case k < 8: // Scan
					type rec struct {
						rid RecordID
						tup string
					}
					var a, b []rec
					it := st.Scan(part)
					for {
						tup, rid, ok := it.Next()
						if !ok {
							break
						}
						a = append(a, rec{rid, string(tup)})
					}
					it.Close()
					errB := refScan(ref, part, func(tup []byte, rid RecordID) { b = append(b, rec{rid, string(tup)}) })
					if it.Err() != nil || errB != nil {
						fail("op %d: Scan(%v): %v, reference %v", op, part, it.Err(), errB)
					}
					if len(a) != len(b) {
						fail("op %d: Scan(%v) yielded %d tuples, reference %d", op, part, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							fail("op %d: Scan(%v) tuple %d is %v, reference %v", op, part, i, a[i].rid, b[i].rid)
						}
					}
				case k < 9: // point Get
					rid := rids[part][rng.Intn(len(rids[part]))]
					a, okA, errA := st.Get(part, rid)
					b, okB, errB := ref.Get(part, rid)
					if errA != nil || errB != nil || okA != okB || !bytes.Equal(a, b) {
						fail("op %d: Get(%v, %v) diverged (%v, %v)", op, part, rid, errA, errB)
					}
				default:
					if errA, errB := st.FlushPartition(part), ref.FlushPartition(part); errA != nil || errB != nil {
						fail("op %d: FlushPartition(%v): %v, reference %v", op, part, errA, errB)
					}
				}
				if n := st.PinnedFrames(); n != 0 {
					fail("op %d: %d frames pinned after the operation", op, n)
				}
				got, want := st.Stats(), ref.Stats()
				if got.Hits+got.Misses != want.Hits+want.Misses {
					fail("op %d: Hits+Misses = %d, pages requested %d", op, got.Hits+got.Misses, want.Hits+want.Misses)
				}
				// Insert's create-Get is a miss the backend never sees; both
				// stores make the same ones.
				created := want.Misses - uint64(refIO.pages)
				if got.Misses != uint64(io.pages)+created || got.ReadCalls != uint64(io.calls) {
					fail("op %d: Misses %d (%d of them created pages), ReadCalls %d; backend served %d pages in %d calls",
						op, got.Misses, created, got.ReadCalls, io.pages, io.calls)
				}
			}
			checkIndex(t, st)

			// Cold, a scan reads runPages pages to a call.
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			pages := uint64(st.NumPages(0))
			if pages < 2*runPages {
				fail("setup: partition 0 has %d pages, fewer than two runs", pages)
			}
			coldPool(st, io, frames)
			if _, err := st.ScanCount(0); err != nil {
				t.Fatal(err)
			}
			if s, want := st.Stats(), (pages+runPages-1)/runPages; s.Misses != pages || s.ReadCalls != want {
				fail("cold scan of %d pages: %d misses in %d read calls, want %d calls", pages, s.Misses, s.ReadCalls, want)
			}
		})
	}
}

// TestRunTornPageMidRun tears a page in the middle of a run behind the
// store's back. The scan's error names that page; no frame of the run
// stays pinned, or indexed without having been verified; the next scan
// reports the same error, not a stale frame; an iterator yields the runs
// before it; other partitions scan cleanly.
func TestRunTornPageMidRun(t *testing.T) {
	const torn = runPages + 5
	dir := t.TempDir()
	st, io := openOneStripe(t, dir, 2, 64)
	defer st.Close()
	fillPages(t, st, 0, 3*runPages)
	want1 := fillPages(t, st, 1, runPages+3)
	coldPool(st, io, 64)

	f, err := os.OpenFile(st.partPath(0), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF}, torn*512+200); err != nil {
		t.Fatal(err)
	}
	f.Close()

	name := fmt.Sprintf("page %d:", torn)
	for round := 0; round < 2; round++ {
		_, err := st.ScanCount(0)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("round %d: ScanCount over a torn page %d: %v", round, torn, err)
		}
		checkIndex(t, st)
		if fr := st.pools[0].stripes[0].lookup(pageKey{0, torn}); fr != nil {
			t.Fatalf("round %d: the torn page is cached", round)
		}
	}
	it := st.Scan(0)
	last := RecordID{}
	for {
		_, rid, ok := it.Next()
		if !ok {
			break
		}
		last = rid
	}
	it.Close()
	if err := it.Err(); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Scan over a torn page %d: %v", torn, err)
	}
	if last.Page != runPages-1 {
		t.Fatalf("Scan stopped after page %d, want the whole run before the torn one (page %d)", last.Page, runPages-1)
	}
	checkIndex(t, st)
	if n, err := st.ScanCount(1); err != nil || n != want1 {
		t.Fatalf("the other partition: %d tuples (%v), want %d", n, err, want1)
	}
}

// TestRunTinyPools: a run shortens to what the clock can supply — down
// to one page, the behaviour before runs — an overflow frame is served
// only when every frame is pinned, and an open Iterator never pins more
// than one run.
func TestRunTinyPools(t *testing.T) {
	st, _ := openOneStripe(t, t.TempDir(), 2, 4)
	defer st.Close()
	want := fillPages(t, st, 0, 2*runPages+3)
	fillPages(t, st, 1, 4)
	pool := st.pools[0]

	scan := func(when string, overflows uint64) {
		t.Helper()
		before := st.Stats()
		n, err := st.ScanCount(0)
		if err != nil || n != want {
			t.Fatalf("%s: ScanCount = %d (%v), want %d", when, n, err, want)
		}
		after := st.Stats()
		if got := after.Hits + after.Misses - before.Hits - before.Misses; got != uint64(st.NumPages(0)) {
			t.Fatalf("%s: %d pages counted for a scan of %d", when, got, st.NumPages(0))
		}
		if got := after.Overflows - before.Overflows; got != overflows {
			t.Fatalf("%s: %d overflow frames, want %d", when, got, overflows)
		}
	}
	scan("4 free frames", 0)
	checkIndex(t, st)

	// Pin frames one at a time: the run shrinks with the free frames, and
	// only with none left does a scan spill.
	var held []*Frame
	for i := uint32(0); i < 4; i++ {
		fr, err := pool.Get(pageKey{1, i}, false)
		if err != nil || fr.transient {
			t.Fatalf("pinning P1 page %d: transient=%v err=%v", i, fr != nil && fr.transient, err)
		}
		held = append(held, fr)
		var run [runPages]*Frame
		got, err := pool.pinRun(0, 0, runPages, &run)
		if err != nil {
			t.Fatal(err)
		}
		if free := 3 - int(i); got != max(free, 1) || run[0].transient != (free == 0) {
			t.Fatalf("%d frames free: pinRun gave %d pages (transient=%v)", free, got, run[0].transient)
		}
		pool.unpinRun(run[:got])
		if i < 3 {
			scan(fmt.Sprintf("%d frames pinned", i+1), 0)
		}
	}
	scan("every frame pinned", uint64(st.NumPages(0)))
	for _, fr := range held {
		pool.Unpin(fr, false)
	}
	checkIndex(t, st)

	for _, frames := range []int{4, 64} {
		st, _ := openOneStripe(t, t.TempDir(), 1, frames)
		fillPages(t, st, 0, 2*runPages+3)
		it, most := st.Scan(0), 0
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
			most = max(most, st.PinnedFrames())
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if want := min(frames, runPages); most != want {
			t.Errorf("%d frames: an open iterator pinned up to %d frames, want %d", frames, most, want)
		}
		checkIndex(t, st)
		st.Close()
	}
}

// TestRunShortFile: the heap file ends before the page count the scan
// snapshotted — in the middle of a page, and on a page boundary in the
// middle of a run. The vectored read comes back short; the scan must
// report the first page the file lacks, not panic, and not cache a page
// of zeros.
func TestRunShortFile(t *testing.T) {
	for _, c := range []struct {
		name string
		size int64
		page uint32
	}{
		{"mid-page", (runPages+4)*512 + 100, runPages + 4},
		{"page boundary", (runPages + 9) * 512, runPages + 9},
		{"run boundary", 2 * runPages * 512, 2 * runPages},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, io := openOneStripe(t, t.TempDir(), 1, 64)
			defer st.Close()
			fillPages(t, st, 0, 2*runPages+8)
			coldPool(st, io, 64)
			if err := os.Truncate(st.partPath(0), c.size); err != nil {
				t.Fatal(err)
			}
			_, err := st.ScanCount(0)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d:", c.page)) {
				t.Fatalf("ScanCount over a file cut at %d bytes: %v, want an error naming page %d", c.size, err, c.page)
			}
			checkIndex(t, st)
			if fr := st.pools[0].stripes[0].lookup(pageKey{0, c.page}); fr != nil {
				t.Fatal("a page the file does not hold is cached")
			}
		})
	}
}

// TestRunRefusedWriteBack: a dirty victim whose write-back the barrier
// refuses in the middle of a run's claims. The victim stays cached,
// indexed and dirty (barrier_test.go's rule for every refused write),
// every pin taken for the run is released, and once the barrier passes
// the same scan succeeds and the victim's image reaches disk.
func TestRunRefusedWriteBack(t *testing.T) {
	st, _ := openOneStripe(t, t.TempDir(), 2, 8)
	defer st.Close()
	want := fillPages(t, st, 0, 2*runPages)
	fillPages(t, st, 1, 2)
	pool := st.pools[0]

	victim := pageKey{1, 0}
	fr, err := pool.Get(victim, false)
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := fr.Page().Get(0) // aliases the frame
	copy(tup, bytes.Repeat([]byte{'!'}, len(tup)))
	pool.Unpin(fr, true)
	if _, err := pool.Get(pageKey{0, 3}, false); err != nil { // a resident of the run, pinned by someone else
		t.Fatal(err)
	}
	before, err := os.ReadFile(st.partPath(1))
	if err != nil {
		t.Fatal(err)
	}

	errLog := errors.New("log not forced")
	refuse := true
	st.SetWriteBarrier(func() error {
		if refuse {
			return errLog
		}
		return nil
	})
	evicted := st.Stats().Evictions
	if _, err := st.ScanCount(0); !errors.Is(err, errLog) {
		t.Fatalf("ScanCount with a refused write-back: %v, want the barrier's error", err)
	}
	if st.Stats().Evictions == evicted {
		t.Fatal("setup: the refusal was the run's first claim, not one in its middle")
	}
	if fr := pool.stripes[0].lookup(victim); fr == nil || !fr.valid || !fr.dirty {
		t.Fatalf("the refused victim is not cached, indexed and dirty: %+v", fr)
	}
	if after, _ := os.ReadFile(st.partPath(1)); !bytes.Equal(after, before) {
		t.Fatal("heap file changed although the barrier failed")
	}
	if n := st.PinnedFrames(); n != 1 {
		t.Fatalf("%d frames pinned, want only the bystander's", n)
	}
	pool.Unpin(pool.stripes[0].lookup(pageKey{0, 3}), false)
	checkIndex(t, st)

	refuse = false
	if n, err := st.ScanCount(0); err != nil || n != want {
		t.Fatalf("ScanCount once the barrier passes: %d (%v), want %d", n, err, want)
	}
	if fr := pool.stripes[0].lookup(victim); fr != nil {
		t.Fatal("setup: the scan did not evict the victim")
	}
	got, ok, err := st.Get(1, RecordID{Page: 0, Slot: 0})
	if err != nil || !ok || !bytes.Equal(got, bytes.Repeat([]byte{'!'}, len(tup))) {
		t.Fatalf("the victim's update did not survive its eviction: %q (%v, %v)", got, ok, err)
	}
	checkIndex(t, st)
}

// TestScanColdAllocs holds the run path allocation-free by construction:
// a scan of a partition ten times its pool — every page a miss, a victim
// claimed, a vectored read — allocates nothing. Escaping buffer or iovec
// arrays, a closure per read or a RawConn per call would each cost
// objects per run.
func TestScanColdAllocs(t *testing.T) {
	st := mustOpen(t, t.TempDir(), 1, WithPoolFrames(16))
	defer st.Close()
	for st.NumPages(0) < 160 {
		if _, err := st.Insert(0, EncodeEffect(1, 0, 0, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	misses := st.Stats().Misses
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.ScanCount(0); err != nil {
			t.Fatal(err)
		}
	})
	if got := st.Stats().Misses - misses; got != 11*160 {
		t.Fatalf("setup: %d misses over 11 scans of 160 pages — the scans were not cold", got)
	}
	if allocs != 0 {
		t.Errorf("a cold ScanCount allocates %v objects, want 0", allocs)
	}
}

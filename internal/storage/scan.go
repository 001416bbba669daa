package storage

import "batsched/internal/txn"

// runSpan is how many pages a walk at page pg of npages asks pinRun for:
// the rest of pg's run, or of the file.
func runSpan(pg, npages uint32) int {
	return int(min(runPages-pg%runPages, npages-pg))
}

// walk reads part a run of the pool at a time (Pool.pinRun) and returns
// its live tuple count, summed from the page headers; a non-nil fn also
// sees each page. Every page is pinned exactly once, no more than one
// run is pinned at a time, and fn sees a page only while its run is
// pinned — it must not retain the page or a tuple aliasing it. The page
// count is snapshotted when the walk starts; pages added after that may
// or may not be seen — partition-level isolation is the scheduler's
// contract, not the walk's. On an error the walk stops with nothing
// pinned and returns the count so far.
func (st *Store) walk(part txn.PartitionID, fn func(Page)) (int, error) {
	pf, err := st.pf(part)
	if err != nil {
		return 0, err
	}
	npages := pf.numPages()
	pool := st.pool
	var run [runPages]*Frame
	n := 0
	for pg := uint32(0); pg < npages; {
		got, err := pool.pinRun(part, pg, runSpan(pg, npages), &run)
		if err != nil {
			return n, err
		}
		for _, fr := range run[:got] {
			p := fr.Page()
			n += p.Live()
			if fn != nil {
				fn(p)
			}
		}
		pool.unpinRun(run[:got])
		pg += uint32(got)
	}
	return n, nil
}

// ScanCount returns the partition's live tuple count — the batched form
// of the full read the execution layers drive on a granted read step.
// Each heap page is pinned exactly once through the buffer pool, a run
// at a time (a cold page still costs a real disk read and CRC verify),
// and counted from its header's live count. No per-record work, no
// allocation, and no visitor: a call per page read 7 % slower on
// BenchmarkStorageScan (docs/STORAGE.md §3).
func (st *Store) ScanCount(part txn.PartitionID) (int, error) { return st.walk(part, nil) }

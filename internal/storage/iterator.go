package storage

import (
	"sync"

	"batsched/internal/txn"
)

// Iterator walks one partition's live tuples page by page, a run of the
// pool at a time (Pool.pinRun): it holds pins on the current page's run,
// at most runPages frames, and on nothing else. Tuples are yielded
// zero-copy: the returned slice aliases the pinned frame and is valid
// only until the next Next or Close — callers retaining a tuple must
// copy it. The pin accounting enforces the contract: any path that
// would recycle the frame while records still alias it panics in
// Unpin. The page count is snapshotted at Scan time; tuples inserted
// after that may or may not be seen — partition-level isolation is the
// scheduler's contract, not the iterator's.
type Iterator struct {
	st     *Store
	part   txn.PartitionID
	pool   *Pool
	npages uint32
	page   uint32
	slot   int
	nslots int
	fr     *Frame // the current page's frame, run[cur]; nil between pages
	run    [runPages]*Frame
	nrun   int // frames of run pinned
	cur    int
	err    error
	done   bool
}

// runSpan is how many pages a scan at page pg of npages asks pinRun for:
// the rest of pg's run, or of the file.
func runSpan(pg, npages uint32) int {
	return int(min(runPages-pg%runPages, npages-pg))
}

// iterPool recycles iterators for the store's internal scan paths
// (ScanCount, Keys) so a scan allocates nothing. Public Scan draws from
// it too, but Close does not recycle — Err stays readable after Close.
var iterPool = sync.Pool{New: func() any { return new(Iterator) }}

// Scan opens an iterator over part. Always Close it — an open iterator
// holds pins on its current run.
func (st *Store) Scan(part txn.PartitionID) *Iterator {
	it := iterPool.Get().(*Iterator)
	*it = Iterator{st: st, part: part}
	pf, err := st.pf(part)
	if err != nil {
		it.err, it.done = err, true
		return it
	}
	it.npages = pf.numPages()
	it.pool = st.poolOf(part)
	return it
}

// Next returns the next live tuple and its RecordID, or false when the
// scan is exhausted or failed (check Err). The tuple aliases the pinned
// page frame: it is invalidated by the next Next call and by Close.
func (it *Iterator) Next() ([]byte, RecordID, bool) {
	if it.done {
		return nil, RecordID{}, false
	}
	for {
		if it.fr == nil {
			if it.cur == it.nrun {
				it.unpinRun()
				if it.page >= it.npages {
					it.done = true
					return nil, RecordID{}, false
				}
				n, err := it.pool.pinRun(it.part, it.page, runSpan(it.page, it.npages), &it.run)
				if err != nil {
					it.err, it.done = err, true
					return nil, RecordID{}, false
				}
				it.nrun = n
			}
			it.fr = it.run[it.cur]
			it.slot = 0
			it.nslots = it.fr.Page().NumSlots()
		}
		pg := it.fr.Page()
		for it.slot < it.nslots {
			s := it.slot
			it.slot++
			if tup, ok := pg.Get(s); ok {
				return tup, RecordID{Page: it.page, Slot: s}, true
			}
		}
		it.fr = nil
		it.cur++
		it.page++
	}
}

func (it *Iterator) unpinRun() {
	if it.nrun > 0 {
		it.pool.unpinRun(it.run[:it.nrun])
	}
	it.nrun, it.cur = 0, 0
}

// Err returns the error that stopped the scan, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's pins. Safe to call twice. Tuples yielded
// by Next must not be used after Close.
func (it *Iterator) Close() {
	it.fr = nil
	it.unpinRun()
	it.done = true
}

// recycle returns a closed iterator to the free pool. Internal only:
// the caller must be done with Err and every yielded tuple.
func (it *Iterator) recycle() {
	it.Close()
	*it = Iterator{}
	iterPool.Put(it)
}

// ScanCount returns the partition's live tuple count — the batched form
// of the full read the execution layers drive on a granted read step.
// Each heap page is pinned exactly once through the buffer pool, a run
// at a time (a cold page still costs a real disk read and CRC verify),
// and counted from its header's live count. No per-record work, no
// allocation.
func (st *Store) ScanCount(part txn.PartitionID) (int, error) {
	pf, err := st.pf(part)
	if err != nil {
		return 0, err
	}
	npages := pf.numPages()
	pool := st.poolOf(part)
	var run [runPages]*Frame
	n := 0
	for pg := uint32(0); pg < npages; {
		got, err := pool.pinRun(part, pg, runSpan(pg, npages), &run)
		if err != nil {
			return n, err
		}
		for _, fr := range run[:got] {
			n += fr.Page().Live()
		}
		pool.unpinRun(run[:got])
		pg += uint32(got)
	}
	return n, nil
}

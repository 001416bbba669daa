package storage

import (
	"sync"

	"batsched/internal/txn"
)

// Iterator walks one partition's live tuples page by page, pinning the
// current page for the duration of its tuples. Tuples are yielded
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
	fr     *Frame
	err    error
	done   bool
}

// iterPool recycles iterators for the store's internal scan paths
// (ScanCount, Keys) so a scan allocates nothing. Public Scan draws from
// it too, but Close does not recycle — Err stays readable after Close.
var iterPool = sync.Pool{New: func() any { return new(Iterator) }}

// Scan opens an iterator over part. Always Close it — an open iterator
// holds a pin on its current page.
func (st *Store) Scan(part txn.PartitionID) *Iterator {
	it := iterPool.Get().(*Iterator)
	*it = Iterator{st: st, part: part}
	pf, err := st.pf(part)
	if err != nil {
		it.err, it.done = err, true
		return it
	}
	pf.mu.Lock()
	it.npages = pf.pages
	pf.mu.Unlock()
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
			if it.page >= it.npages {
				it.done = true
				return nil, RecordID{}, false
			}
			fr, err := it.pool.Get(pageKey{it.part, it.page}, false)
			if err != nil {
				it.err, it.done = err, true
				return nil, RecordID{}, false
			}
			it.fr = fr
			it.slot = 0
			it.nslots = fr.Page().NumSlots()
		}
		pg := it.fr.Page()
		for it.slot < it.nslots {
			s := it.slot
			it.slot++
			if tup, ok := pg.Get(s); ok {
				return tup, RecordID{Page: it.page, Slot: s}, true
			}
		}
		it.pool.Unpin(it.fr, false)
		it.fr = nil
		it.page++
	}
}

// Err returns the error that stopped the scan, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's pin. Safe to call twice. Tuples yielded
// by Next must not be used after Close.
func (it *Iterator) Close() {
	if it.fr != nil {
		it.pool.Unpin(it.fr, false)
		it.fr = nil
	}
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
// Each heap page is pinned exactly once through the buffer pool (a cold
// page still costs a real disk read and CRC verify) and counted from
// its header's live count. No per-record work, no allocation.
func (st *Store) ScanCount(part txn.PartitionID) (int, error) {
	pf, err := st.pf(part)
	if err != nil {
		return 0, err
	}
	pf.mu.Lock()
	npages := pf.pages
	pf.mu.Unlock()
	pool := st.poolOf(part)
	n := 0
	for pg := uint32(0); pg < npages; pg++ {
		fr, err := pool.Get(pageKey{part, pg}, false)
		if err != nil {
			return n, err
		}
		n += fr.Page().Live()
		pool.Unpin(fr, false)
	}
	return n, nil
}

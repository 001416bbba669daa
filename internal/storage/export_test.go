package storage

import "batsched/internal/txn"

// Test-only probes: no program reads a tuple by record ID, counts a
// partition's pages, reads or flushes one page or partition at a time,
// or asks for per-stripe counters.

// NumPages returns the partition's current page count (cached pages
// included — a created page counts before it first reaches disk).
func (st *Store) NumPages(part txn.PartitionID) uint32 {
	pf, err := st.pf(part)
	if err != nil {
		return 0
	}
	return pf.numPages()
}

// Get returns a copy of the tuple at rid, or false for a slot that is
// dead or out of range — the read probe tests check placements with.
func (st *Store) Get(part txn.PartitionID, rid RecordID) ([]byte, bool, error) {
	pf, err := st.pf(part)
	if err != nil {
		return nil, false, err
	}
	n := pf.numPages()
	if rid.Page >= n {
		return nil, false, nil
	}
	pool := st.pool
	fr, err := pool.Get(pageKey{part, rid.Page}, false)
	if err != nil {
		return nil, false, err
	}
	defer pool.Unpin(fr, false)
	tup, ok := fr.Page().Get(rid.Slot)
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), tup...), true, nil
}

// StripeStats snapshots each stripe's counters separately, for asserting
// traffic actually spreads across latches.
func (p *Pool) StripeStats() []PoolStats {
	out := make([]PoolStats, len(p.stripes))
	for i, s := range p.stripes {
		out[i] = s.stats()
	}
	return out
}

// TouchPage reads one page of a partition through the pool, page
// modulo the partition's page count. Reading an empty partition is a
// no-op.
func (st *Store) TouchPage(part txn.PartitionID, page uint32) error {
	pf, err := st.pf(part)
	if err != nil {
		return err
	}
	n := pf.numPages()
	if n == 0 {
		return nil
	}
	fr, err := st.pool.Get(pageKey{part, page % n}, false)
	if err != nil {
		return err
	}
	st.pool.Unpin(fr, false)
	return nil
}

// FlushPartition writes back the partition's dirty pages.
func (st *Store) FlushPartition(part txn.PartitionID) error {
	if _, err := st.pf(part); err != nil {
		return err
	}
	return st.pool.FlushPart(part)
}

// FlushPart writes back every dirty frame of one partition (pinned
// frames included: their current image is consistent — mutators hold
// the partition's op lock and the scheduler's partition lock).
func (p *Pool) FlushPart(part txn.PartitionID) error {
	for _, s := range p.stripes {
		s.mu.Lock()
		if err := s.ioErr; err != nil {
			s.ioErr = nil
			s.mu.Unlock()
			return err
		}
		for _, f := range s.frames {
			if f.valid && f.dirty && f.key.part == part {
				if err := p.writeBackLocked(s, f); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

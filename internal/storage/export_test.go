package storage

import "batsched/internal/txn"

// Test-only probes: no program reads a tuple by record ID, counts a
// partition's pages or asks for per-stripe counters.

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
	pool := st.poolOf(part)
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

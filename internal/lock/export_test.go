package lock

import (
	"sort"

	"batsched/internal/txn"
)

// Test-only views of the table: the schedulers ask Holders and the
// conflict queries, never these.

// HeldMode returns the mode id holds on p, if any.
func (tb *Table) HeldMode(id txn.ID, p txn.PartitionID) (txn.Mode, bool) {
	e := tb.lookup(p)
	if e == nil {
		return 0, false
	}
	for _, h := range e.holders {
		if h.id == id {
			return h.mode, true
		}
	}
	return 0, false
}

// PendingDecls returns the pending declarations of id in step order.
func (tb *Table) PendingDecls(id txn.ID) []Decl {
	var out []Decl
	for _, p := range tb.txns[id] {
		for _, d := range tb.lookup(p).decls {
			if d.Txn == id {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

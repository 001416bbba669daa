package lock

import (
	"sort"

	"batsched/internal/txn"
)

// Test-only views of the table: the schedulers ask Holders and the
// conflict queries, never these.

// HeldMode returns the mode id holds on p, if any.
func (tb *Table) HeldMode(id txn.ID, p txn.PartitionID) (txn.Mode, bool) {
	e := tb.parts[p]
	if e == nil {
		return 0, false
	}
	m, ok := e.holders[id]
	return m, ok
}

// PendingDecls returns the pending declarations of id in step order.
func (tb *Table) PendingDecls(id txn.ID) []Decl {
	var out []Decl
	for p := range tb.touched[id] {
		e := tb.parts[p]
		if e == nil {
			continue
		}
		for _, d := range e.decls {
			if d.Txn == id {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

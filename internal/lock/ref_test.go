package lock

import (
	"fmt"
	"slices"
	"sort"

	"batsched/internal/txn"
)

// refTable is the map-based lock table the slot engine replaced, kept
// verbatim as the reference the differential (TestQuickDifferentialTable)
// holds Table to: per-partition entries that come and go with their
// holders and declarations, a per-transaction partition set, and a
// K-admission test built from per-declaration conflict degrees.

type refEntry struct {
	holders map[txn.ID]txn.Mode // strongest granted mode per transaction
	decls   []Decl              // pending declarations in registration order
}

type refTable struct {
	parts map[txn.PartitionID]*refEntry
	// touched tracks which partitions each live transaction has holds or
	// declarations on, so Release is O(own partitions).
	touched map[txn.ID]map[txn.PartitionID]bool
	// blockers is Blocked's result buffer, reused from call to call.
	blockers []txn.ID
}

func newRefTable() *refTable {
	return &refTable{
		parts:   make(map[txn.PartitionID]*refEntry),
		touched: make(map[txn.ID]map[txn.PartitionID]bool),
	}
}

func (tb *refTable) entry(p txn.PartitionID) *refEntry {
	e := tb.parts[p]
	if e == nil {
		e = &refEntry{holders: make(map[txn.ID]txn.Mode)}
		tb.parts[p] = e
	}
	return e
}

func (tb *refTable) touch(id txn.ID, p txn.PartitionID) {
	m := tb.touched[id]
	if m == nil {
		m = make(map[txn.PartitionID]bool)
		tb.touched[id] = m
	}
	m[p] = true
}

func (tb *refTable) Declare(t *txn.T) error {
	if _, ok := tb.touched[t.ID]; ok {
		return fmt.Errorf("lock: %v already declared", t.ID)
	}
	for i, s := range t.Steps {
		e := tb.entry(s.Part)
		e.decls = append(e.decls, Decl{Txn: t.ID, Step: i, Mode: s.Mode, Due: t.Due(i)})
		tb.touch(t.ID, s.Part)
	}
	if _, ok := tb.touched[t.ID]; !ok {
		// Zero-step transaction: still record it so Release/Known work.
		tb.touched[t.ID] = make(map[txn.PartitionID]bool)
	}
	return nil
}

func (tb *refTable) Known(id txn.ID) bool {
	_, ok := tb.touched[id]
	return ok
}

func (tb *refTable) Blocked(id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
	e := tb.parts[p]
	if e == nil {
		return nil
	}
	out := tb.blockers[:0]
	for h, m := range e.holders {
		if h != id && mode.Conflicts(m) {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	tb.blockers = out
	return out
}

func (tb *refTable) IsBlocked(id txn.ID, p txn.PartitionID, mode txn.Mode) bool {
	e := tb.parts[p]
	if e == nil {
		return false
	}
	for h, m := range e.holders {
		if h != id && mode.Conflicts(m) {
			return true
		}
	}
	return false
}

func (tb *refTable) ConflictingDecls(id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
	e := tb.parts[p]
	if e == nil {
		return nil
	}
	var out []Decl
	for _, d := range e.decls {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			out = append(out, d)
		}
	}
	return out
}

func (tb *refTable) Grant(id txn.ID, p txn.PartitionID, step int) error {
	e := tb.parts[p]
	if e == nil {
		return fmt.Errorf("lock: grant %v on unknown partition %v", id, p)
	}
	idx := -1
	var mode txn.Mode
	for i, d := range e.decls {
		if d.Txn == id && d.Step == step {
			idx = i
			mode = d.Mode
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("lock: no declaration for %v step %d on %v", id, step, p)
	}
	if tb.IsBlocked(id, p, mode) {
		return fmt.Errorf("lock: grant %v %v on %v conflicts with holders %v", id, mode, p, tb.Blocked(id, p, mode))
	}
	e.decls = append(e.decls[:idx], e.decls[idx+1:]...)
	if held, ok := e.holders[id]; !ok || mode == txn.Write && held == txn.Read {
		e.holders[id] = mode
	}
	return nil
}

func (tb *refTable) Release(id txn.ID) []txn.PartitionID {
	var freed []txn.PartitionID
	for p := range tb.touched[id] {
		e := tb.parts[p]
		if e == nil {
			continue
		}
		if _, held := e.holders[id]; held {
			delete(e.holders, id)
			freed = append(freed, p)
		}
		kept := e.decls[:0]
		for _, d := range e.decls {
			if d.Txn != id {
				kept = append(kept, d)
			}
		}
		e.decls = kept
		if len(e.holders) == 0 && len(e.decls) == 0 {
			delete(tb.parts, p)
		}
	}
	delete(tb.touched, id)
	slices.Sort(freed)
	return freed
}

// DeclConflictDegree returns, for each pending declaration of t (by step
// index), how many pending declarations of other transactions it conflicts
// with.
func (tb *refTable) DeclConflictDegree(id txn.ID) map[int]int {
	out := make(map[int]int)
	for p := range tb.touched[id] {
		e := tb.parts[p]
		if e == nil {
			continue
		}
		for _, d := range e.decls {
			if d.Txn != id {
				continue
			}
			n := 0
			for _, o := range e.decls {
				if o.Txn != id && d.Mode.Conflicts(o.Mode) {
					n++
				}
			}
			out[d.Step] += n
		}
	}
	return out
}

func (tb *refTable) WouldExceedK(t *txn.T, k int) bool {
	// Conflicts gained by each existing declaration, keyed per declaration
	// identity (txn, step).
	type key struct {
		id   txn.ID
		step int
	}
	gained := make(map[key]int)
	for _, s := range t.Steps {
		e := tb.parts[s.Part]
		if e == nil {
			continue
		}
		mine := 0
		for _, o := range e.decls {
			if o.Txn == t.ID {
				continue
			}
			if s.Mode.Conflicts(o.Mode) {
				mine++
				gained[key{o.Txn, o.Step}]++
			}
		}
		if mine > k {
			return true
		}
	}
	if len(gained) == 0 {
		return false
	}
	existing := make(map[txn.ID]map[int]int)
	for kk := range gained {
		if _, ok := existing[kk.id]; !ok {
			existing[kk.id] = tb.DeclConflictDegree(kk.id)
		}
	}
	for kk, g := range gained {
		if existing[kk.id][kk.step]+g > k {
			return true
		}
	}
	return false
}

func (tb *refTable) Holders(p txn.PartitionID) []txn.ID {
	e := tb.parts[p]
	if e == nil {
		return nil
	}
	out := make([]txn.ID, 0, len(e.holders))
	for id := range e.holders {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (tb *refTable) CheckInvariants() error {
	for p, e := range tb.parts {
		writers := 0
		for _, m := range e.holders {
			if m == txn.Write {
				writers++
			}
		}
		if writers > 1 || (writers == 1 && len(e.holders) > 1) {
			return fmt.Errorf("lock: conflicting holders on %v: %v", p, e.holders)
		}
	}
	return nil
}

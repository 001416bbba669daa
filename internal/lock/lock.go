// Package lock implements the centralized partition-granule lock table of
// the paper's control node (§2.2).
//
// Locking granules are partitions. A read step needs a shared (S) lock, a
// write step an exclusive (X) lock; X conflicts with both S and X. Every
// transaction registers *lock-declarations* for all of its steps at start;
// a declaration carries the step's due(s) value ("due(sj) is attached to
// the lock-declaration of sj in the lock table"). When the transaction
// reaches a step, the declaration is replaced by a lock-request and, once
// granted, by a held lock. All locks are held until commitment (strict
// locking for recovery) and released together at commit.
//
// The table is pure bookkeeping: granting policy (blocking, cautious
// tests, WTPG optimization) lives in the schedulers.
package lock

import (
	"fmt"
	"slices"
	"sort"

	"batsched/internal/txn"
)

// Decl is a pending lock-declaration: transaction id, the step it belongs
// to, the access mode, and the declared due(s) value of the step.
type Decl struct {
	Txn  txn.ID
	Step int
	Mode txn.Mode
	Due  float64
}

// String renders the declaration for diagnostics.
func (d Decl) String() string {
	return fmt.Sprintf("%v/step%d:%v(due=%g)", d.Txn, d.Step, d.Mode, d.Due)
}

type entry struct {
	holders map[txn.ID]txn.Mode // strongest granted mode per transaction
	decls   []Decl              // pending declarations in registration order
}

// Table is the control node's lock table. The zero value is not usable;
// use NewTable.
type Table struct {
	parts map[txn.PartitionID]*entry
	// touched tracks which partitions each live transaction has holds or
	// declarations on, so Release is O(own partitions).
	touched map[txn.ID]map[txn.PartitionID]bool
	// blockers is Blocked's result buffer, reused from call to call.
	blockers []txn.ID
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{
		parts:   make(map[txn.PartitionID]*entry),
		touched: make(map[txn.ID]map[txn.PartitionID]bool),
	}
}

func (tb *Table) entry(p txn.PartitionID) *entry {
	e := tb.parts[p]
	if e == nil {
		e = &entry{holders: make(map[txn.ID]txn.Mode)}
		tb.parts[p] = e
	}
	return e
}

func (tb *Table) touch(id txn.ID, p txn.PartitionID) {
	m := tb.touched[id]
	if m == nil {
		m = make(map[txn.PartitionID]bool)
		tb.touched[id] = m
	}
	m[p] = true
}

// Declare registers lock-declarations for every step of t, using t's
// declared I/O demands for the due values. It returns an error if t is
// already known to the table.
func (tb *Table) Declare(t *txn.T) error {
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

// Known reports whether id currently has declarations or holds.
func (tb *Table) Known(id txn.ID) bool {
	_, ok := tb.touched[id]
	return ok
}

// Blocked returns the transactions (other than id) holding locks on p that
// conflict with mode, in ascending ID order. An empty result means the
// request is not blocked. The slice is the table's own and is valid until
// the next call to Blocked (a refused Grant makes one).
func (tb *Table) Blocked(id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
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

// IsBlocked reports whether a request by id on p in the given mode
// conflicts with any held lock of another transaction. Unlike Blocked it
// allocates nothing.
func (tb *Table) IsBlocked(id txn.ID, p txn.PartitionID, mode txn.Mode) bool {
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

// EachConflictingDecl visits the pending declarations of other
// transactions on p that conflict with mode, in registration order,
// without allocating.
func (tb *Table) EachConflictingDecl(id txn.ID, p txn.PartitionID, mode txn.Mode, fn func(Decl)) {
	e := tb.parts[p]
	if e == nil {
		return
	}
	for _, d := range e.decls {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			fn(d)
		}
	}
}

// ConflictingDecls returns the pending declarations of other transactions
// on p that conflict with mode — the paper's C(q) for a request q of
// transaction id in the given mode. Results are in registration order.
func (tb *Table) ConflictingDecls(id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
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

// Grant converts the declaration of (id, step) on p into a held lock,
// upgrading the holder's mode if the transaction already holds a weaker
// lock on p. It returns an error if the declaration does not exist or the
// grant would conflict with another holder (the caller must check Blocked
// first).
func (tb *Table) Grant(id txn.ID, p txn.PartitionID, step int) error {
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

// Release drops all holds and remaining declarations of id (commit, or
// abort before start). It returns the partitions on which id held locks,
// sorted — the partitions whose waiters may now be grantable.
func (tb *Table) Release(id txn.ID) []txn.PartitionID {
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
// with. Used for the K-conflict admission test of the K-WTPG scheduler.
func (tb *Table) DeclConflictDegree(id txn.ID) map[int]int {
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

// WouldExceedK reports whether registering t's declarations would cause
// any pending declaration (t's own or an existing transaction's) to
// conflict with more than k declarations. It must be called before
// Declare(t).
func (tb *Table) WouldExceedK(t *txn.T, k int) bool {
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

// Holders returns the transactions holding locks on p, sorted by id.
func (tb *Table) Holders(p txn.PartitionID) []txn.ID {
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

// CheckInvariants verifies that no two conflicting locks are held
// simultaneously on any partition. It returns the first violation found.
// Intended for tests and the simulator's self-checking mode.
func (tb *Table) CheckInvariants() error {
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

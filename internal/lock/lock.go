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

	"batsched/internal/idmap"
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

// holder is a granted lock: the strongest mode id holds on the partition.
type holder struct {
	id   txn.ID
	mode txn.Mode
}

type entry struct {
	holders []holder // one per holding transaction, unordered
	decls   []Decl   // pending declarations in registration order
}

// Table is the control node's lock table: a slot engine in the style of
// the WTPG's. A partition indexes a slot slice that points into an entry
// slab whose holder and declaration slices are reused by reslicing, and
// each live transaction maps, through the id index, to a slot in a slab
// of partition lists (the distinct partitions it touches) recycled
// through a free list — so a Declare → Grant → Release cycle allocates
// nothing once the table is warm. Partitions are the layout's dense 0..NumParts−1 (DESIGN.md §16):
// the slot slice grows to the highest partition declared, and an emptied
// entry stays indexed. The zero value is not usable; use NewTable.
type Table struct {
	slot    []int32 // partition → 1 + its index into entries; 0 if never locked
	entries []entry
	txns    idmap.Map[int32]    // live transaction → its index into parts
	parts   [][]txn.PartitionID // a live transaction's distinct partitions
	free    []int32             // parts indices of released transactions

	// Result and working buffers, reused from call to call.
	blockers []txn.ID
	freed    []txn.PartitionID
	dues     []float64
}

// NewTable returns an empty lock table.
func NewTable() *Table { return &Table{} }

// lookup returns p's entry, or nil if p was never locked.
func (tb *Table) lookup(p txn.PartitionID) *entry {
	if uint(p) >= uint(len(tb.slot)) {
		return nil
	}
	i := tb.slot[p]
	if i == 0 {
		return nil
	}
	return &tb.entries[i-1]
}

// entry returns p's entry, indexing a new one on first use. p must not be
// negative. The pointer is valid until the next new partition grows the
// slab.
func (tb *Table) entry(p txn.PartitionID) *entry {
	if n := int(p) + 1; n > len(tb.slot) {
		tb.slot = append(tb.slot, make([]int32, n-len(tb.slot))...)
	}
	i := tb.slot[p]
	if i == 0 {
		tb.entries = append(tb.entries, entry{})
		i = int32(len(tb.entries))
		tb.slot[p] = i
	}
	return &tb.entries[i-1]
}

// Declare registers lock-declarations for every step of t, using t's
// declared I/O demands for the due values. It returns an error if t is
// already known to the table or a step names a negative partition.
func (tb *Table) Declare(t *txn.T) error {
	if _, ok := tb.txns.Get(t.ID); ok {
		return fmt.Errorf("lock: %v already declared", t.ID)
	}
	for _, s := range t.Steps {
		if s.Part < 0 {
			return fmt.Errorf("lock: %v declares negative partition %v", t.ID, s.Part)
		}
	}
	// due(s_i) for every step in one suffix-sum pass, added in t.Due's
	// order so the values are bit-identical.
	n := len(t.Steps)
	tb.dues = slices.Grow(tb.dues[:0], n)[:n]
	sum := 0.0
	for i := n - 1; i >= 0; i-- {
		sum += t.Declared[i]
		tb.dues[i] = sum
	}
	var pi int32
	if k := len(tb.free); k > 0 {
		pi, tb.free = tb.free[k-1], tb.free[:k-1]
	} else {
		pi = int32(len(tb.parts))
		tb.parts = append(tb.parts, nil)
	}
	parts := tb.parts[pi][:0]
	for i, s := range t.Steps {
		e := tb.entry(s.Part)
		e.decls = append(e.decls, Decl{Txn: t.ID, Step: i, Mode: s.Mode, Due: tb.dues[i]})
		if !slices.Contains(parts, s.Part) {
			parts = append(parts, s.Part)
		}
	}
	tb.parts[pi] = parts
	// A zero-step transaction is still recorded so Release/Known work.
	tb.txns.Put(t.ID, pi)
	return nil
}

// Known reports whether id currently has declarations or holds.
func (tb *Table) Known(id txn.ID) bool {
	_, ok := tb.txns.Get(id)
	return ok
}

// Blocked returns the transactions (other than id) holding locks on p that
// conflict with mode, in ascending ID order. An empty result means the
// request is not blocked. The slice is the table's own and is valid until
// the next call to Blocked (a refused Grant makes one).
func (tb *Table) Blocked(id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
	e := tb.lookup(p)
	if e == nil {
		return nil
	}
	out := tb.blockers[:0]
	for _, h := range e.holders {
		if h.id != id && mode.Conflicts(h.mode) {
			out = append(out, h.id)
		}
	}
	slices.Sort(out)
	tb.blockers = out
	return out
}

// IsBlocked reports whether a request by id on p in the given mode
// conflicts with any held lock of another transaction. Unlike Blocked it
// touches no buffer.
func (tb *Table) IsBlocked(id txn.ID, p txn.PartitionID, mode txn.Mode) bool {
	e := tb.lookup(p)
	if e == nil {
		return false
	}
	for _, h := range e.holders {
		if h.id != id && mode.Conflicts(h.mode) {
			return true
		}
	}
	return false
}

// ConflictingDecls appends to dst the pending declarations of other
// transactions on p that conflict with mode — the paper's C(q) for a
// request q of transaction id in the given mode — in registration order,
// and returns the extended slice. One transaction's declarations are
// adjacent: Declare adds them together, and Grant and Release remove
// without reordering.
func (tb *Table) ConflictingDecls(dst []Decl, id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
	e := tb.lookup(p)
	if e == nil {
		return dst
	}
	for _, d := range e.decls {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			dst = append(dst, d)
		}
	}
	return dst
}

// ConflictingTxns appends to dst the transactions other than t that hold
// or declare a lock on one of t's partitions in a mode conflicting with
// t's step there, ascending and deduplicated, and returns the extended
// slice. A holder's mode is the strongest it was granted, so these are
// exactly the transactions some declared step of t conflicts with —
// the ones registering t gives a conflicting-edge — found without
// visiting any transaction that shares no partition with t.
func (tb *Table) ConflictingTxns(dst []txn.ID, t *txn.T) []txn.ID {
	start := len(dst)
	for _, s := range t.Steps {
		e := tb.lookup(s.Part)
		if e == nil {
			continue
		}
		for _, h := range e.holders {
			if h.id != t.ID && s.Mode.Conflicts(h.mode) {
				dst = append(dst, h.id)
			}
		}
		for _, d := range e.decls {
			if d.Txn != t.ID && s.Mode.Conflicts(d.Mode) {
				dst = append(dst, d.Txn)
			}
		}
	}
	found := dst[start:]
	slices.Sort(found)
	return dst[:start+len(slices.Compact(found))]
}

// Grant converts the declaration of (id, step) on p into a held lock,
// upgrading the holder's mode if the transaction already holds a weaker
// lock on p. It returns an error if the declaration does not exist or the
// grant would conflict with another holder (the caller must check Blocked
// first).
func (tb *Table) Grant(id txn.ID, p txn.PartitionID, step int) error {
	e := tb.lookup(p)
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
	for i := range e.holders {
		if e.holders[i].id == id {
			if mode == txn.Write {
				e.holders[i].mode = txn.Write
			}
			return nil
		}
	}
	e.holders = append(e.holders, holder{id, mode})
	return nil
}

// Release drops all holds and remaining declarations of id (commit, or
// abort before start). It returns the partitions on which id held locks,
// sorted — the partitions whose waiters may now be grantable. The slice is
// the table's own and is valid until the next call to Release.
func (tb *Table) Release(id txn.ID) []txn.PartitionID {
	freed := tb.freed[:0]
	pi, ok := tb.txns.Get(id)
	var parts []txn.PartitionID
	if ok {
		parts = tb.parts[pi]
	}
	for _, p := range parts {
		e := tb.lookup(p)
		for i, h := range e.holders {
			if h.id == id {
				last := len(e.holders) - 1
				e.holders[i] = e.holders[last]
				e.holders = e.holders[:last]
				freed = append(freed, p)
				break
			}
		}
		kept := e.decls[:0]
		for _, d := range e.decls {
			if d.Txn != id {
				kept = append(kept, d)
			}
		}
		e.decls = kept
	}
	if ok {
		tb.txns.Delete(id)
		tb.free = append(tb.free, pi)
	}
	slices.Sort(freed)
	tb.freed = freed
	return freed
}

// WouldExceedK reports whether registering t's declarations would cause
// any pending declaration (t's own or an existing transaction's) to
// conflict with more than k declarations. It must be called before
// Declare(t).
//
// A step of t conflicts with every conflicting declaration o of another
// transaction on its partition p, so t's own declaration there has one
// conflict per such o, and o gains one conflict per step of t on p that
// conflicts with it, on top of the conflicts o already has with the other
// transactions' declarations on p.
func (tb *Table) WouldExceedK(t *txn.T, k int) bool {
	for _, s := range t.Steps {
		e := tb.lookup(s.Part)
		if e == nil {
			continue
		}
		mine := 0
		for _, o := range e.decls {
			if o.Txn != t.ID && s.Mode.Conflicts(o.Mode) {
				mine++
			}
		}
		if mine > k {
			return true
		}
		for _, o := range e.decls {
			if o.Txn == t.ID || !s.Mode.Conflicts(o.Mode) {
				continue
			}
			gained := 0
			for _, ts := range t.Steps {
				if ts.Part == s.Part && ts.Mode.Conflicts(o.Mode) {
					gained++
				}
			}
			degree := 0
			for _, d := range e.decls {
				if d.Txn != o.Txn && o.Mode.Conflicts(d.Mode) {
					degree++
				}
			}
			if degree+gained > k {
				return true
			}
		}
	}
	return false
}

// Holders returns the transactions holding locks on p, sorted by id.
func (tb *Table) Holders(p txn.PartitionID) []txn.ID {
	e := tb.lookup(p)
	if e == nil || len(e.holders) == 0 {
		return nil
	}
	out := make([]txn.ID, len(e.holders))
	for i, h := range e.holders {
		out[i] = h.id
	}
	slices.Sort(out)
	return out
}

// CheckInvariants verifies that no two conflicting locks are held
// simultaneously on any partition. It returns the first violation found.
// Intended for tests and the simulator's self-checking mode.
func (tb *Table) CheckInvariants() error {
	for p, i := range tb.slot {
		if i == 0 {
			continue
		}
		e := &tb.entries[i-1]
		writers := 0
		for _, h := range e.holders {
			if h.mode == txn.Write {
				writers++
			}
		}
		if writers > 1 || (writers == 1 && len(e.holders) > 1) {
			return fmt.Errorf("lock: conflicting holders on %v: %v", txn.PartitionID(p), e.holders)
		}
	}
	return nil
}

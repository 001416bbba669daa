// Package idmap is the control node's index keyed by transaction id: the
// lock table's live transactions, the WTPG's node slots, the schedulers'
// per-transaction records and the live controller's control records.
//
// Map is an open-addressing hash table. A key's home slot is a
// multiplicative (Fibonacci) hash of the id, collisions probe linearly,
// a delete shifts the rest of its cluster back so no tombstone is ever
// left, and the table doubles when an insert would take it past half
// full. Once grown to a working set it allocates nothing. Every int64 id
// is a valid key, 0 and negative ids included. DESIGN.md §16 states the
// contract.
package idmap

import (
	"math/bits"

	"batsched/internal/txn"
)

// minSlots is the table size of the first insert (a power of two).
const minSlots = 16

// fib is 2⁶⁴/φ: multiplying by it spreads consecutive ids, the ones the
// simulator and the live controller assign, over the whole table.
const fib = 0x9E3779B97F4A7C15

type slot[V any] struct {
	key  txn.ID
	full bool
	val  V
}

// Map maps transaction ids to values of type V. The zero value is an
// empty map ready to use. It is not safe for concurrent use.
type Map[V any] struct {
	slots []slot[V] // len is zero or a power of two
	n     int
	shift uint // 64 − log2(len(slots))
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

func (m *Map[V]) home(k txn.ID) int { return int(uint64(k) * fib >> m.shift) }

// find returns k's slot and true, or the empty slot that ends k's probe
// sequence and false. The table must have slots.
func (m *Map[V]) find(k txn.ID) (int, bool) {
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.full {
			return i, false
		}
		if s.key == k {
			return i, true
		}
	}
}

// Get returns k's value and whether k is present; the zero V when not.
func (m *Map[V]) Get(k txn.ID) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	i, ok := m.find(k)
	return m.slots[i].val, ok // an empty slot holds the zero V
}

// Put sets k's value, inserting k if absent.
func (m *Map[V]) Put(k txn.ID, v V) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	i, ok := m.find(k)
	if !ok {
		m.slots[i].key, m.slots[i].full = k, true
		m.n++
	}
	m.slots[i].val = v
}

// grow doubles the table (or makes the first one) and re-inserts every
// entry.
func (m *Map[V]) grow() {
	old := m.slots
	size := max(minSlots, 2*len(old))
	m.slots = make([]slot[V], size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.full {
			i, _ := m.find(s.key)
			m.slots[i] = s
		}
	}
}

// Delete removes k; an absent k is a no-op. The entries after k's slot in
// its cluster move back over the hole unless their home slot lies
// cyclically in (hole, entry], so every remaining key stays reachable
// from its home without a tombstone.
func (m *Map[V]) Delete(k txn.ID) {
	if m.n == 0 {
		return
	}
	hole, ok := m.find(k)
	if !ok {
		return
	}
	mask := len(m.slots) - 1
	for j := (hole + 1) & mask; m.slots[j].full; j = (j + 1) & mask {
		h := m.home(m.slots[j].key)
		if stays := (hole < h && h <= j) || (j < hole && (hole < h || h <= j)); stays {
			continue
		}
		m.slots[hole] = m.slots[j]
		hole = j
	}
	m.slots[hole] = slot[V]{}
	m.n--
}

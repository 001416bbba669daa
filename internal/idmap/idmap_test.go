package idmap

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

// check holds m to ref: the same length, every pool key answered as ref
// answers it, the occupied slots holding exactly ref's entries once
// each, and every occupied slot reachable from its key's home.
func check(t *testing.T, step int, m *Map[int], ref map[txn.ID]int, pool []txn.ID) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(ref))
	}
	for _, k := range pool {
		got, ok := m.Get(k)
		want, wok := ref[k]
		if ok != wok || got != want {
			t.Fatalf("step %d: Get(%d) = %d, %v; want %d, %v", step, k, got, ok, want, wok)
		}
	}
	seen := make(map[txn.ID]bool, len(ref))
	for i, s := range m.slots {
		if !s.full {
			continue
		}
		if seen[s.key] {
			t.Fatalf("step %d: key %d occupies two slots", step, s.key)
		}
		seen[s.key] = true
		if want, ok := ref[s.key]; !ok || want != s.val {
			t.Fatalf("step %d: slot %d holds %d→%d, reference has %d, %v", step, i, s.key, s.val, want, ok)
		}
		if j, ok := m.find(s.key); !ok || j != i {
			t.Fatalf("step %d: key %d in slot %d is not reachable from its home %d", step, s.key, i, m.home(s.key))
		}
	}
	if len(seen) != m.n {
		t.Fatalf("step %d: %d occupied slots, Len %d", step, len(seen), m.n)
	}
}

// sameHome returns n keys whose home slot in a table of size slots is
// home, searching upward from start.
func sameHome(size, home, n int, start txn.ID) []txn.ID {
	probe := Map[int]{slots: make([]slot[int], size)}
	probe.shift = uint(64 - bits.TrailingZeros(uint(size)))
	var out []txn.ID
	for k := start; len(out) < n; k++ {
		if probe.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

// TestQuickDifferentialMap drives seeded random put/get/delete sequences
// through a Map and a Go map. The key pool holds 0, negative ids, the
// int64 extremes, keys that share a home slot at the first table size —
// including homes at the table's end, so clusters wrap around and deletes
// land inside wrapped clusters — and a sliding window of sequential ids
// that grows the table past several doublings.
func TestQuickDifferentialMap(t *testing.T) {
	pool := []txn.ID{0, -1, -2, -7, 1, 2, 3, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	pool = append(pool, sameHome(minSlots, 3, 5, 100)...)
	pool = append(pool, sameHome(minSlots, minSlots-1, 5, -5000)...)
	pool = append(pool, sameHome(minSlots, minSlots-2, 4, 9000)...)
	base := len(pool)
	for k := txn.ID(1000); k < 1200; k++ {
		pool = append(pool, k)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m Map[int]
		ref := make(map[txn.ID]int)
		// Early steps draw from the crafted keys only, so the first
		// table's colliding and wrapping clusters form before growth.
		for step := 0; step < 3000; step++ {
			span := base
			if step > 200 {
				span = len(pool)
			}
			k := pool[rng.Intn(span)]
			switch r := rng.Intn(10); {
			case r < 5:
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
			case r < 9:
				m.Delete(k)
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				if want, wok := ref[k]; ok != wok || got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d, %v; want %d, %v", seed, step, k, got, ok, want, wok)
				}
			}
			check(t, step, &m, ref, pool)
		}
	}
}

// TestDeleteInsideWrappedCluster pins backward-shift deletion across the
// table's end: five keys homed at the last slot fill it and wrap to the
// first four, and deleting each in turn leaves the rest reachable.
func TestDeleteInsideWrappedCluster(t *testing.T) {
	keys := sameHome(minSlots, minSlots-1, 5, 1)
	for del := range keys {
		var m Map[int]
		ref := make(map[txn.ID]int)
		for i, k := range keys {
			m.Put(k, i)
			ref[k] = i
		}
		if len(m.slots) != minSlots || !m.slots[0].full || !m.slots[3].full {
			t.Fatalf("the cluster does not wrap: %d slots", len(m.slots))
		}
		m.Delete(keys[del])
		delete(ref, keys[del])
		check(t, del, &m, ref, keys)
	}
}

// TestMapSteadyStateAllocs: once grown to its working set, a sliding
// window of sequential ids — one insert and one delete per step, as live
// and the simulator assign them — allocates nothing.
func TestMapSteadyStateAllocs(t *testing.T) {
	var m Map[*int]
	v := new(int)
	next := txn.ID(1)
	const window = 64
	for ; next <= window; next++ {
		m.Put(next, v)
	}
	step := func() {
		m.Put(next, v)
		if _, ok := m.Get(next - window/2); !ok {
			t.Fatal("window entry missing")
		}
		m.Delete(next - window)
		next++
	}
	for range 1000 {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("%.0f allocations per warmed put/get/delete step, want 0", got)
	}
}

// BenchmarkIDMapChurn is the control node's use of the index: a sliding
// window of 64 live sequential ids, each step admitting one, looking up
// two and retiring the oldest.
func BenchmarkIDMapChurn(b *testing.B) {
	var m Map[int32]
	const window = 64
	next := txn.ID(1)
	for ; next <= window; next++ {
		m.Put(next, int32(next))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m.Put(next, int32(next))
		_, _ = m.Get(next - 1)
		_, _ = m.Get(next - window/2)
		m.Delete(next - window)
		next++
	}
}

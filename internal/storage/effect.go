package storage

import (
	"encoding/binary"

	"batsched/internal/txn"
	"batsched/internal/wal"
)

// The deterministic effect model (docs/STORAGE.md): every committed
// write step s_i of transaction T inserts exactly one tuple into s_i's
// partition, and the tuple is a pure function of (T, i). The final
// content of every partition is therefore a pure function of the
// committed set — the property the differential and crash batteries
// check — and re-applying an effect is detectable (the key is already
// present), which makes WAL redo idempotent.

// EffectKey identifies one committed write effect.
type EffectKey struct {
	Txn  txn.ID
	Step int
}

const (
	effectHeaderLen = 16
	// effectBytes is the size of the effect tuple a committed write step
	// inserts (the smallest page, MinPageSize, holds several).
	effectBytes = 64
)

// EncodeEffect builds the effect tuple for (id, step) on part, padded
// to size bytes with a deterministic filler.
func EncodeEffect(id txn.ID, step int, part txn.PartitionID, size int) []byte {
	if size < effectHeaderLen {
		size = effectHeaderLen
	}
	b := make([]byte, size)
	putEffect(b, id, step, part)
	return b
}

// putEffect writes the effect tuple into b, overwriting every byte (so
// a reused scratch buffer never leaks stale filler).
func putEffect(b []byte, id txn.ID, step int, part txn.PartitionID) {
	binary.LittleEndian.PutUint64(b, uint64(id))
	binary.LittleEndian.PutUint32(b[8:], uint32(step))
	binary.LittleEndian.PutUint32(b[12:], uint32(part))
	for i := effectHeaderLen; i < len(b); i++ {
		b[i] = byte(uint64(id)*2654435761 + uint64(step)*40503 + uint64(i))
	}
}

// DecodeEffect parses an effect tuple's key and partition.
func DecodeEffect(b []byte) (EffectKey, txn.PartitionID, bool) {
	if len(b) < effectHeaderLen {
		return EffectKey{}, 0, false
	}
	return EffectKey{
			Txn:  txn.ID(binary.LittleEndian.Uint64(b)),
			Step: int(binary.LittleEndian.Uint32(b[8:])),
		},
		txn.PartitionID(binary.LittleEndian.Uint32(b[12:])),
		true
}

// Stage is a no-op: a commit's effects are its footprint's write steps,
// which ApplyCommit inserts, so nothing is staged ahead of the commit. It
// stays declared only because benchmark/traced.go calls it and
// benchmark/ is frozen by BENCHMARK.json; it leaves in the next
// benchmark change, like live's no-op shard option.
func (st *Store) Stage(txn.ID, int, txn.PartitionID) {}

// ApplyCommit inserts the effect tuple of every write step of t into
// its partition, in step order, allocating nothing. It only mutates
// cached pages: they leave the pool by eviction, an overflow frame's
// final Unpin, Flush or Close — never on the committer's path. The
// caller MUST have appended t's WAL Commit record first and must still
// hold its partition locks (scans read frames with no latch, so the
// writer's lock is all that keeps them off a page while it mutates); the
// rest of the write-ahead contract is internal/live's (wal.go). An
// aborted transaction never gets here, so it has nothing to undo: a
// no-steal policy at transaction granularity.
func (st *Store) ApplyCommit(t *txn.T) error {
	return st.applyEffects(t.ID, len(t.Steps), func(i int) (txn.PartitionID, txn.Mode) {
		return t.Steps[i].Part, t.Steps[i].Mode
	}, false)
}

// Keys scans a partition and returns the set of effect keys present
// (tuples that do not decode as effects are ignored). On an error it
// returns the keys of the pages read before it.
func (st *Store) Keys(part txn.PartitionID) (map[EffectKey]bool, error) {
	keys := make(map[EffectKey]bool)
	_, err := st.walk(part, func(pg Page) {
		for s := 0; s < pg.NumSlots(); s++ {
			if tup, ok := pg.Get(s); ok {
				if k, _, ok := DecodeEffect(tup); ok {
					keys[k] = true
				}
			}
		}
	})
	return keys, err
}

// Redo re-applies one committed transaction's missing write effects
// from its WAL Commit record (wal.Replay's apply callback shape, wave
// parameter dropped). Effects already present — the page survived the
// crash — are skipped: redo is idempotent. Safe for the concurrent
// calls a replay wave makes; the caller flushes once afterwards.
func (st *Store) Redo(commit wal.Record) error {
	st.redoMu.Lock()
	defer st.redoMu.Unlock()
	return st.applyEffects(commit.Txn, len(commit.Steps), func(i int) (txn.PartitionID, txn.Mode) {
		return commit.Steps[i].Part, commit.Steps[i].Mode
	}, true)
}

// applyEffects is the one effect loop: it inserts the effect tuple of
// every write step among id's n steps, in step order, into the one stack
// buffer; step(i) names step i's partition and mode. With redo set (and
// redoMu held) an effect already present is skipped, checked against a
// per-partition key index built on the first redo into that partition.
func (st *Store) applyEffects(id txn.ID, n int, step func(int) (txn.PartitionID, txn.Mode), redo bool) error {
	var buf [effectBytes]byte
	for i := 0; i < n; i++ {
		part, mode := step(i)
		if mode != txn.Write {
			continue
		}
		if redo {
			present := st.redoKeys[part]
			if present == nil {
				var err error
				if present, err = st.Keys(part); err != nil {
					return err
				}
				st.redoKeys[part] = present
			}
			key := EffectKey{Txn: id, Step: i}
			if present[key] {
				continue
			}
			present[key] = true
		}
		putEffect(buf[:], id, i, part)
		if _, err := st.Insert(part, buf[:]); err != nil {
			return err
		}
	}
	return nil
}

package storage

import (
	"encoding/binary"
	"sync"

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

// stagedPool recycles staged-effect slices so the stage/commit cycle of
// the live hot path allocates nothing in steady state.
var stagedPool = sync.Pool{New: func() any { return new([]stagedEffect) }}

// Stage records that (id, step) will insert its effect tuple into part
// if — and only if — the transaction commits. Nothing touches a page
// until ApplyCommit: uncommitted effects are never written, so aborts
// need no undo (a no-steal policy at transaction granularity).
func (st *Store) Stage(id txn.ID, step int, part txn.PartitionID) {
	st.stageMu.Lock()
	lp := st.staged[id]
	if lp == nil {
		lp = stagedPool.Get().(*[]stagedEffect)
		*lp = (*lp)[:0]
		st.staged[id] = lp
	}
	*lp = append(*lp, stagedEffect{step: step, part: part})
	st.stageMu.Unlock()
}

// ApplyCommit applies id's staged effects to their partitions. It only
// mutates cached pages: they leave the pool by eviction, an overflow
// frame's final Unpin, Flush or Close — never on the committer's path. The caller MUST have
// appended the transaction's WAL commit record first and must still hold its
// partition locks (scans read frames with no latch, so the writer's lock
// is all that keeps them off a page while it mutates); the rest of the
// write-ahead contract is internal/durable's.
func (st *Store) ApplyCommit(id txn.ID) error {
	st.stageMu.Lock()
	lp := st.staged[id]
	delete(st.staged, id)
	st.stageMu.Unlock()
	if lp == nil {
		return nil
	}
	var buf [effectBytes]byte
	for _, e := range *lp {
		putEffect(buf[:], id, e.step, e.part)
		if _, err := st.Insert(e.part, buf[:]); err != nil {
			stagedPool.Put(lp)
			return err
		}
	}
	stagedPool.Put(lp)
	return nil
}

// Drop discards id's staged effects (abort, or end-of-run cleanup for
// transactions still in flight).
func (st *Store) Drop(id txn.ID) {
	st.stageMu.Lock()
	if lp := st.staged[id]; lp != nil {
		delete(st.staged, id)
		stagedPool.Put(lp)
	}
	st.stageMu.Unlock()
}

// Keys scans a partition and returns the set of effect keys present
// (tuples that do not decode as effects are ignored).
func (st *Store) Keys(part txn.PartitionID) (map[EffectKey]bool, error) {
	keys := make(map[EffectKey]bool)
	it := st.Scan(part)
	for {
		tup, _, ok := it.Next()
		if !ok {
			break
		}
		if k, _, ok := DecodeEffect(tup); ok {
			keys[k] = true
		}
	}
	err := it.Err()
	it.recycle()
	return keys, err
}

// Redo re-applies one committed transaction's missing write effects
// from its WAL Commit record (wal.Replay's apply callback shape, wave
// parameter dropped). Effects already present — the page survived the
// crash — are skipped: redo is idempotent. Safe for the concurrent
// calls a replay wave makes; the caller flushes once afterwards.
func (st *Store) Redo(commit wal.Record) error {
	for i, s := range commit.Steps {
		if s.Mode != txn.Write {
			continue
		}
		key := EffectKey{Txn: commit.Txn, Step: i}
		st.redoMu.Lock()
		present := st.redoKeys[s.Part]
		if present == nil {
			var err error
			if present, err = st.Keys(s.Part); err != nil {
				st.redoMu.Unlock()
				return err
			}
			st.redoKeys[s.Part] = present
		}
		if !present[key] {
			present[key] = true
			if _, err := st.Insert(s.Part, EncodeEffect(commit.Txn, i, s.Part, effectBytes)); err != nil {
				st.redoMu.Unlock()
				return err
			}
		}
		st.redoMu.Unlock()
	}
	return nil
}

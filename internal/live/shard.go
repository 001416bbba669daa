package live

// This file is the controller's shard map: how partitions hash to
// shards, how a transaction's footprint becomes a shard mask, and the
// one spanning-specific step of admission: admitting and pre-granting a
// transaction's per-shard projections atomically.
//
// Sharding invariants (DESIGN.md §13):
//
//  1. Ownership: every partition's locks are managed by exactly one
//     shard (shardOf), so conflicting holders can never coexist across
//     shards — any sharded execution stays conflict serializable
//     because every scheduler is strict (locks held to commit).
//  2. Canonical lock order: shard mutexes are only ever acquired in
//     ascending shard index, and the log's mutex only after shard locks;
//     no code path acquires a lower shard while holding a higher one.
//  3. Spanning admission is atomic: a transaction whose footprint spans
//     shards acquires ALL of its locks at admission, under all of its
//     shard locks, or none (rollback via the scheduler abort path). A
//     spanning transaction therefore never waits while holding locks,
//     so no wait-for cycle can cross a shard boundary and the per-shard
//     cautious schedulers retain deadlock freedom.
//  4. Home shard: a transaction's control record (ltxn — admission
//     time, parked wait, last granted step) lives on the
//     lowest-indexed shard of its footprint; all other shards hold only
//     scheduler state.

import (
	"math/bits"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// maxShards bounds WithShards so a footprint's shard set fits in one
// uint64 bitmask. 64 shards is far beyond the core counts this
// controller targets.
const maxShards = 64

// WithShards partitions the controller's hot path — lock table, WTPG,
// scheduler state, wait state, counters — into n
// shards by partition-ownership hashing. n is rounded up to a power of
// two and capped at 64; values ≤ 1 keep the default single shard,
// which behaves exactly like the historical single-mutex controller.
//
// Sharding trades strictly-global admission policy for parallelism:
// each shard's scheduler makes its decisions from its own partitions'
// state only, so cross-shard policy interactions (e.g. CHAIN's
// batch-wide order W) apply per shard. Correctness is unaffected — see
// the invariants at the top of shard.go — and the differential tests
// pin the sharded committed set against the single-mutex one.
func WithShards(n int) Option {
	return func(c *Controller) {
		if n <= 1 {
			c.nshards = 1
			return
		}
		if n > maxShards {
			n = maxShards
		}
		p := 1
		for p < n {
			p <<= 1
		}
		c.nshards = p
	}
}

// Shards reports the controller's shard count.
func (c *Controller) Shards() int { return c.nshards }

// shardTagged decorates an observer so every event a shard's scheduler
// emits carries the shard index (Event.Shard). Shard 0's tag is the
// zero value, keeping unsharded traces byte-identical.
type shardTagged struct {
	o     obs.Observer
	shard int
}

func (s shardTagged) Observe(e obs.Event) {
	e.Shard = s.shard
	s.o.Observe(e)
}

// shardOf maps a partition to its owning shard: a Fibonacci hash of the
// partition id masked to the (power-of-two) shard count. With one shard
// this is constant 0 and the compiler-visible fast path.
func (c *Controller) shardOf(p txn.PartitionID) int {
	if c.nshards == 1 {
		return 0
	}
	return int((uint64(uint32(p))*0x9E3779B97F4A7C15)>>32) & (c.nshards - 1)
}

// shardMask returns the set of shards t's footprint touches as a
// bitmask (bit i = shard i). An empty footprint maps to shard 0.
func (c *Controller) shardMask(t *txn.T) uint64 {
	if c.nshards == 1 || len(t.Steps) == 0 {
		return 1
	}
	var m uint64
	for _, s := range t.Steps {
		m |= 1 << uint(c.shardOf(s.Part))
	}
	return m
}

// homeShard is the lowest-indexed shard of a footprint mask — the shard
// holding the transaction's control state.
func homeShard(mask uint64) int { return bits.TrailingZeros64(mask) }

// spanning reports whether the mask covers more than one shard.
func spanning(mask uint64) bool { return mask&(mask-1) != 0 }

// lockAll acquires every shard lock in canonical (ascending) order.
func (c *Controller) lockAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
}

// unlockAll releases every shard lock (reverse order).
func (c *Controller) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// lockMask acquires the masked shards' locks in canonical order.
func (c *Controller) lockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		c.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

// unlockMask releases the masked shards' locks.
func (c *Controller) unlockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		c.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// eachShard calls fn for every masked shard in ascending order.
func (c *Controller) eachShard(mask uint64, fn func(sh *lshard)) {
	for m := mask; m != 0; m &= m - 1 {
		fn(c.shards[bits.TrailingZeros64(m)])
	}
}

// projection is a spanning transaction's sub-transaction for one shard:
// the steps (and their declared demands) whose partitions the shard
// owns, under the same transaction ID. Each shard's scheduler admits and
// locks exactly its projection; scheduler state is keyed by ID, so later
// full-footprint calls (ObjectDone, Commit, Abort) resolve to the same
// registration.
type projection struct {
	sh *lshard
	t  *txn.T
}

// project returns t's projection on each shard of mask, ascending.
func (c *Controller) project(t *txn.T, mask uint64) []projection {
	projs := make([]projection, 0, bits.OnesCount64(mask))
	c.eachShard(mask, func(sh *lshard) {
		steps := make([]txn.Step, 0, len(t.Steps))
		decl := make([]float64, 0, len(t.Steps))
		for i, s := range t.Steps {
			if c.shardOf(s.Part) == sh.idx {
				steps = append(steps, s)
				decl = append(decl, t.Declared[i])
			}
		}
		projs = append(projs, projection{sh, txn.NewDeclared(t.ID, steps, decl)})
	})
	return projs
}

// admitProjectedLocked is the one spanning-specific step of Admit: under
// all of the footprint's shard locks (held by the caller), each shard
// admits the transaction's projection and grants every projected step —
// all of the transaction's locks, atomically — and Granted is returned.
// Any refusal rolls the attempt back through the scheduler abort path on
// every shard it registered on (including a shard whose Admit succeeded
// but a Request refused — the abort path releases partial grants and
// repairs the WTPG) and returns the refusing shard with its decision, for
// Admit to wait on with no lock held: the transaction never waits while holding locks,
// which is what keeps the sharded controller deadlock-free (invariant
// 3). After a success, Acquire calls are pure bookkeeping.
//
// This is ASL-style pessimism applied only to the spanning minority;
// single-shard traffic keeps the scheduler's incremental granting.
func (c *Controller) admitProjectedLocked(projs []projection, now event.Time) (*lshard, sched.Decision) {
	for i, p := range projs {
		registered := i
		dec := p.sh.sch.Admit(p.t, now).Decision
		if dec == sched.Granted {
			registered++
			for step := 0; dec == sched.Granted && step < len(p.t.Steps); step++ {
				dec = p.sh.sch.Request(p.t, step, now).Decision
			}
		}
		if dec != sched.Granted {
			for _, q := range projs[:registered] {
				// The abort path drops the shard's cached plan: state moved.
				q.sh.sch.Abort(q.t, now)
				q.sh.changedLocked()
			}
			return p.sh, dec
		}
	}
	return nil, sched.Granted
}

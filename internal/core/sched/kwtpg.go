package sched

import (
	"math"
	"slices"
	"strconv"

	"batsched/internal/core/estimate"
	"batsched/internal/event"
	"batsched/internal/lock"
	"batsched/internal/txn"
)

// kwtpg is the K-conflict WTPG scheduler CC2 (§3.3, "K-WTPG"; the paper
// evaluates K=2 as "K2"). It grants a lock-request q only when q's
// estimated contention E(q) is the smallest among the conflicting
// declarations C(q); requests that would deadlock are delayed. The
// K-conflict admission constraint — each lock-declaration may conflict
// with at most K others — bounds |C(q)| and thus the decision cost.
//
// Per §3.4, E values are cached and recomputed only when a transaction
// starts or commits, a new precedence-edge is generated, or KeepTime has
// elapsed since the last computation. Each live transaction's record
// holds one entry per step, reused by reslicing when the record is; the
// cache is invalidated by bumping a generation counter — entries stamped
// with an older generation simply miss — so nothing is cleared or
// allocated in the steady state.
type kwtpg struct {
	wtpgBase
	k          int
	cacheGen   uint64 // starts at 1: a reset entry's generation 0 misses
	cacheAt    event.Time
	cacheDirty bool
	// declBuf is Request's C(q), reused from call to call.
	declBuf []lock.Decl
}

// cachedE is a generation-stamped E(q) value: valid only while its gen
// matches the scheduler's current cache generation.
type cachedE struct {
	val float64
	gen uint64
}

// NewKWTPG returns a K-conflict WTPG scheduler with bound k.
func NewKWTPG(costs Costs, k int) Scheduler {
	return &kwtpg{wtpgBase: newWTPGBase(costs), k: k, cacheGen: 1}
}

func (s *kwtpg) Name() string {
	return "K" + strconv.Itoa(s.k)
}

func (s *kwtpg) Admit(t *txn.T, now event.Time) Outcome {
	// K-conflict admission test (§3.3): abort the start when any
	// declaration would conflict with more than K declarations.
	if s.locks.WouldExceedK(t, s.k) {
		return Outcome{Decision: Aborted, CPU: s.costs.DDTime}
	}
	if err := s.register(t); err != nil {
		return Outcome{Decision: Delayed, CPU: s.costs.DDTime}
	}
	s.cacheDirty = true
	return Outcome{Decision: Granted, CPU: s.costs.DDTime}
}

// maybeInvalidate applies §3.4's cache-invalidation conditions.
func (s *kwtpg) maybeInvalidate(now event.Time) {
	if s.cacheDirty || now-s.cacheAt >= s.costs.KeepTime {
		s.cacheGen++
		s.cacheAt = now
		s.cacheDirty = false
	}
}

// estimateE returns E for the hypothetical grant of (t, step), using the
// cache in t's record r (nil: t is not live, and nothing is cached). The
// second result reports whether a fresh computation ran.
func (s *kwtpg) estimateE(r *txnRec, t *txn.T, step int) (float64, bool) {
	if r != nil && len(r.e) == 0 {
		n := len(t.Steps)
		r.e = slices.Grow(r.e, n)[:n]
		clear(r.e)
	}
	if r != nil && r.e[step].gen == s.cacheGen {
		return r.e[step].val, false
	}
	v := estimate.E(s.graph, t.ID, s.impliedTargets(t, step))
	if r != nil {
		r.e[step] = cachedE{val: v, gen: s.cacheGen}
	}
	return v, true
}

func (s *kwtpg) Request(t *txn.T, step int, now event.Time) Outcome {
	cpu := s.costs.DDTime
	// Step 1 of CC2.
	if s.blocked(t, step) {
		return Outcome{Decision: Blocked, CPU: cpu}
	}
	s.maybeInvalidate(now)
	// Step 2 of CC2: E(q); a predicted deadlock delays q.
	r, _ := s.live.Get(t.ID)
	eq, fresh := s.estimateE(r, t, step)
	if fresh {
		cpu += s.costs.KWTPGTime
	}
	if math.IsInf(eq, 1) {
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	// Step 3 of CC2: grant only if E(q) is minimal over C(q).
	st := t.Steps[step]
	s.declBuf = s.locks.ConflictingDecls(s.declBuf[:0], t.ID, st.Part, st.Mode)
	for _, d := range s.declBuf {
		other, ok := s.live.Get(d.Txn)
		if !ok {
			continue
		}
		ep, fresh := s.estimateE(other, other.t, d.Step)
		if fresh {
			cpu += s.costs.KWTPGTime
		}
		if eq > ep {
			return Outcome{Decision: Delayed, CPU: cpu}
		}
	}
	targets := s.impliedTargets(t, step)
	if err := s.grant(t, step, targets); err != nil {
		return Outcome{Decision: Delayed, CPU: cpu}
	}
	if len(targets) > 0 {
		// New precedence-edges invalidate cached estimates (§3.4 rule 3).
		s.cacheDirty = true
	}
	return Outcome{Decision: Granted, CPU: cpu}
}

func (s *kwtpg) ObjectDone(t *txn.T, objects float64, now event.Time) {
	s.objectDone(t, objects)
}

func (s *kwtpg) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	freed := s.commit(t)
	s.cacheDirty = true
	return freed, 0
}

// Abort recovers from an external abort: base splice plus invalidating
// every cached E value (the graph changed exactly like on a commit, and
// splice resolutions add precedence-edges — §3.4 rule 3).
func (s *kwtpg) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	freed := s.abort(t)
	s.cacheDirty = true
	return freed, s.costs.DDTime
}

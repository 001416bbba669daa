package sched

import (
	"fmt"

	"batsched/internal/core/wtpg"
	"batsched/internal/idmap"
	"batsched/internal/lock"
	"batsched/internal/txn"
)

// wtpgBase is the machinery shared by every declaration-aware scheduler
// (C2PL, CHAIN, K-WTPG and the hybrids): the lock table, the WTPG and the
// live-transaction registry, with the paper's registration and resolution
// rules. The registry holds one record per live transaction in the id
// index; spare recycles the records of departed ones.
type wtpgBase struct {
	costs Costs
	locks *lock.Table
	graph *wtpg.Graph
	live  idmap.Map[*txnRec]
	spare []*txnRec

	// Scratch buffers for the request hot path (the control node is
	// single-threaded, so plain reuse is safe). impliedTargets owns
	// conflictBuf: K-WTPG's loop over its own C(q) calls it. peerBuf holds
	// the live transactions register gives an arrival edges to.
	targetBuf   []txn.ID
	conflictBuf []lock.Decl
	peerBuf     []txn.ID
}

// txnRec is a scheduler's record of one live transaction: the
// transaction, CHAIN's part of W, C2PL's refusal memo and K-WTPG's E(q)
// cache. Each family uses the fields it needs.
type txnRec struct {
	t *txn.T
	// w is W at t (chain): the chain neighbours before and after t on
	// its chain that W orders after t, 0 where W orders t after it or
	// there is none. In chain form t conflicts with at most these two.
	w [2]txn.ID
	// refused is the step the cycle test last refused and witness the
	// evidence it refused on (wtpg.Graph.CycleWitness), which names the
	// transaction's own stay first (c2pl). An empty witness is no memo.
	refused int
	witness []wtpg.Stay
	// e holds one generation-stamped E(q) per step (kwtpg), sized on the
	// transaction's first estimate; generation 0 is never current, so a
	// reset entry misses.
	e []cachedE
}

func newWTPGBase(costs Costs) wtpgBase {
	return wtpgBase{
		costs: costs,
		locks: lock.NewTable(),
		graph: wtpg.New(),
	}
}

// enter records t as live, reusing a departed transaction's record.
func (b *wtpgBase) enter(t *txn.T) {
	var r *txnRec
	if n := len(b.spare); n > 0 {
		r, b.spare = b.spare[n-1], b.spare[:n-1]
	} else {
		r = new(txnRec)
	}
	r.t, r.w, r.witness, r.e = t, [2]txn.ID{}, r.witness[:0], r.e[:0]
	b.live.Put(t.ID, r)
}

// leave drops id's record, if any, for reuse.
func (b *wtpgBase) leave(id txn.ID) {
	if r, ok := b.live.Get(id); ok {
		b.live.Delete(id)
		r.t = nil
		b.spare = append(b.spare, r)
	}
}

// register adds t to the lock table and the WTPG: its declarations with
// due values, its node with w(T0→Ti) = due(s0), a conflicting-edge to
// every live transaction it conflicts with, and immediate resolutions
// u→t for every u already holding a lock that conflicts with one of t's
// declarations (u's access necessarily precedes t's). The transactions t
// conflicts with are the ones the lock table holds or declares on t's
// partitions in a conflicting mode, so only those are visited, in ID
// order.
func (b *wtpgBase) register(t *txn.T) error {
	if err := b.locks.Declare(t); err != nil {
		return err
	}
	if err := b.graph.AddNode(t.ID, t.DeclaredTotal()); err != nil {
		b.locks.Release(t.ID)
		return err
	}
	b.peerBuf = b.locks.ConflictingTxns(b.peerBuf[:0], t)
	for _, id := range b.peerBuf {
		u, _ := b.live.Get(id)
		wtu, wut, ok := wtpg.ConflictWeights(t, u.t)
		if !ok {
			continue
		}
		if err := b.graph.AddConflict(t.ID, id, wtu, wut); err != nil {
			b.unregister(t)
			return err
		}
	}
	// Immediate resolutions against current holders.
	for _, s := range t.Steps {
		for _, h := range b.locks.Blocked(t.ID, s.Part, s.Mode) {
			if !b.graph.Has(h) {
				continue // holder not live (should not happen: strict locks)
			}
			if err := b.graph.Resolve(h, t.ID); err != nil {
				b.unregister(t)
				return fmt.Errorf("sched: register %v: %w", t.ID, err)
			}
		}
	}
	b.enter(t)
	return nil
}

// staysChainForm is step 0 of CC1 — the WTPG must remain in chain form
// with t in it (Definition 2) — decided before t is registered, so a
// refusal touches neither the lock table nor the graph: the lock table
// names the live transactions t would conflict with, and the graph
// answers for them. Chain form allows t two of them, so the lock table
// stops at a third. A t the table already knows is left to register,
// which refuses it.
func (b *wtpgBase) staysChainForm(t *txn.T) bool {
	if b.locks.Known(t.ID) {
		return true
	}
	peers, n, ok := b.locks.TwoConflictingTxns(t)
	return ok && b.graph.StaysChainForm(peers[:n])
}

// unregister rolls back a failed or rejected admission.
func (b *wtpgBase) unregister(t *txn.T) {
	b.graph.Remove(t.ID)
	b.locks.Release(t.ID)
	b.leave(t.ID)
}

// impliedTargets returns the transactions that granting step of t would
// order after t: every transaction with a pending conflicting declaration
// on the step's partition (deduplicated, in declaration order). The
// returned slice is reused across calls; callers must not retain it.
// A transaction's declarations are adjacent in C(q)
// (lock.Table.ConflictingDecls), so a repeat is the target just listed.
func (b *wtpgBase) impliedTargets(t *txn.T, step int) []txn.ID {
	s := t.Steps[step]
	b.conflictBuf = b.locks.ConflictingDecls(b.conflictBuf[:0], t.ID, s.Part, s.Mode)
	b.targetBuf = b.targetBuf[:0]
	for _, d := range b.conflictBuf {
		if n := len(b.targetBuf); n == 0 || b.targetBuf[n-1] != d.Txn {
			b.targetBuf = append(b.targetBuf, d.Txn)
		}
	}
	return b.targetBuf
}

// grant applies the resolutions t→target and converts the declaration
// into a held lock. The caller must have verified the grant is legal (not
// blocked, no cycle / consistent with W).
func (b *wtpgBase) grant(t *txn.T, step int, targets []txn.ID) error {
	for _, to := range targets {
		if err := b.graph.Resolve(t.ID, to); err != nil {
			return err
		}
	}
	return b.locks.Grant(t.ID, t.Steps[step].Part, step)
}

// objectDone applies the weight-adjustment message of §3.1.
func (b *wtpgBase) objectDone(t *txn.T, objects float64) {
	b.graph.AddW0(t.ID, -objects)
}

// commit releases t's locks and removes it from the WTPG.
func (b *wtpgBase) commit(t *txn.T) []txn.PartitionID {
	freed := b.locks.Release(t.ID)
	b.graph.Remove(t.ID)
	b.leave(t.ID)
	return freed
}

// blocked reports whether step of t conflicts with a held lock.
func (b *wtpgBase) blocked(t *txn.T, step int) bool {
	s := t.Steps[step]
	return b.locks.IsBlocked(t.ID, s.Part, s.Mode)
}

// Graph exposes the scheduler's WTPG. Promoted by every wtpgBase
// scheduler so the observability wrapper (Observed) can report graph
// size, critical-path length and edge resolutions. Callers must not
// mutate the graph.
func (b *wtpgBase) Graph() *wtpg.Graph { return b.graph }

// CheckInvariants verifies the lock table holds no conflicting locks.
// Promoted by every wtpgBase scheduler; the simulator's SelfCheck mode
// calls it after each commit.
func (b *wtpgBase) CheckInvariants() error {
	return b.locks.CheckInvariants()
}

// LockHolders returns the transactions holding a granted lock on p.
// Promoted by every wtpgBase scheduler for diagnostics: the model
// checker asserts no aborted transaction ever appears here.
func (b *wtpgBase) LockHolders(p txn.PartitionID) []txn.ID {
	return b.locks.Holders(p)
}

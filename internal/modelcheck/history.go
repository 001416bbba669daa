package modelcheck

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// grant is one granted access in a partition's conflict-order ledger.
type grant struct {
	id   txn.ID
	mode txn.Mode
}

// History is the one checker of the execution contract
// (docs/ROBUSTNESS.md §10). Every scheduler holds locks to commit, so the
// order in which conflicting accesses to a partition were granted is the
// order the transactions serialize in; a History records it, which
// transactions pre-committed (released their locks as a commit) and each
// declared write step's partition. Feed it with Grant / Commit / Abort or
// attach it as the run's obs.Observer, then Certify. Safe for concurrent use.
type History struct {
	mu        sync.Mutex
	byPart    map[txn.PartitionID][]grant
	committed map[txn.ID]bool
	writes    map[storage.EffectKey]txn.PartitionID
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{
		byPart:    make(map[txn.PartitionID][]grant),
		committed: make(map[txn.ID]bool),
		writes:    make(map[storage.EffectKey]txn.PartitionID),
	}
}

// Grant notes that id was granted p in the given mode.
func (h *History) Grant(id txn.ID, p txn.PartitionID, mode txn.Mode) {
	h.mu.Lock()
	h.byPart[p] = append(h.byPart[p], grant{id, mode})
	h.mu.Unlock()
}

// Commit marks id pre-committed; only such transactions are certified.
func (h *History) Commit(id txn.ID) {
	h.mu.Lock()
	h.committed[id] = true
	h.mu.Unlock()
}

// Abort erases id's grants: its locks were released without effect, and
// the same id may be granted again (a rolled-back spanning admission is).
func (h *History) Abort(id txn.ID) {
	h.mu.Lock()
	for p, gs := range h.byPart {
		h.byPart[p] = slices.DeleteFunc(gs, func(g grant) bool { return g.id == id })
	}
	h.mu.Unlock()
}

// Observe feeds the history from a trace: granted request decisions,
// commits, aborts, and the write steps the drivers' request events name.
func (h *History) Observe(e obs.Event) {
	switch {
	case e.Kind == obs.KindRequest && e.Write:
		h.mu.Lock()
		h.writes[storage.EffectKey{Txn: e.Txn, Step: e.Step}] = e.Part
		h.mu.Unlock()
	case e.Kind == obs.KindDecision && e.Op == "request" && e.Decision == "granted":
		mode := txn.Read
		if e.Write {
			mode = txn.Write
		}
		h.Grant(e.Txn, e.Part, mode)
	case e.Kind == obs.KindAbort, e.Kind == obs.KindCommit && e.Decision == "aborted":
		h.Abort(e.Txn)
	case e.Kind == obs.KindCommit:
		h.Commit(e.Txn)
	}
}

// Committed returns the pre-committed set.
func (h *History) Committed() map[txn.ID]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return maps.Clone(h.committed)
}

// Evidence is what a run shows besides its trace; zero fields check nothing.
type Evidence struct {
	Scans    []wal.NodeScan // the node logs as a restart reads them
	Recovery *wal.Recovery  // what the restart kept
	// Acked holds the commits the clients saw return; nil means every
	// commit in the trace (sim acknowledges in the commit event). Killed
	// says the run was cut off, so unacknowledged commits may be durable.
	Acked   map[txn.ID]bool
	Killed  bool
	Store   *storage.Store                          // the heap files after the run (or the restart)
	Preload map[txn.PartitionID][]storage.EffectKey // what they held before it
}

// Certify checks the contract on everything the evidence covers: (1) the
// conflict graph of the pre-committed transactions is acyclic, and (2)
// stays so with the logged predecessor edges of Scans' Commit records
// added (both ends pre-committed); (3) durable = acknowledged:
// the durable set — Recovery's, else the pre-committed one — holds every
// acknowledged commit and only pre-committed ones, nothing unacknowledged
// unless Killed, and is closed under each partition's conflict order
// (VerifyCommitPrefix); (4) every partition of Store holds exactly Preload
// and the durable transactions' write effects; (5) VerifyRecovery.
func (h *History) Certify(ev Evidence) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.certify(ev, h.conflictOrder)
}

// certify is Certify with the conflict graph's edges drawn by order, which
// calls edge once per conflict-order edge a→b it draws; edge itself drops
// self-loops and any end that did not pre-commit.
func (h *History) certify(ev Evidence, order func(edge func(a, b txn.ID))) error {
	succ := make(map[txn.ID][]txn.ID)
	edge := func(a, b txn.ID) {
		if a != b && h.committed[a] && h.committed[b] {
			succ[a] = append(succ[a], b)
		}
	}
	order(edge)
	if at, ok := cycle(succ); ok {
		return fmt.Errorf("modelcheck: schedule not conflict serializable (cycle through %v)", at)
	}
	for _, ns := range ev.Scans {
		for _, r := range ns.Records {
			for _, p := range r.Preds {
				edge(p, r.Txn)
			}
		}
	}
	if at, ok := cycle(succ); ok {
		return fmt.Errorf("modelcheck: logged predecessors contradict the grant order (cycle through %v)", at)
	}
	durable, acked := h.committed, ev.Acked
	if ev.Recovery != nil {
		durable = make(map[txn.ID]bool, len(ev.Recovery.Committed))
		for _, id := range ev.Recovery.Committed {
			durable[id] = true
		}
	}
	if acked == nil {
		acked = h.committed
	}
	for id := range acked {
		if !durable[id] {
			return fmt.Errorf("modelcheck: acknowledged %v lost: %d durable, %d acknowledged", id, len(durable), len(acked))
		}
	}
	for id := range durable {
		if !h.committed[id] {
			return fmt.Errorf("modelcheck: %v resurrected: durable but never pre-committed", id)
		}
		if !ev.Killed && !acked[id] {
			return fmt.Errorf("modelcheck: %v durable but never acknowledged, and nothing was killed", id)
		}
	}
	err := h.commitPrefix(durable)
	if err == nil && ev.Recovery != nil && ev.Scans != nil {
		err = VerifyRecovery(ev.Scans, ev.Recovery)
	}
	if err != nil {
		return err
	}
	for p := 0; ev.Store != nil && p < ev.Store.NumPartitions(); p++ {
		part := txn.PartitionID(p)
		got, err := ev.Store.Keys(part)
		if err != nil {
			return fmt.Errorf("modelcheck: %v: %w", part, err)
		}
		want := make(map[storage.EffectKey]bool)
		for _, k := range ev.Preload[part] {
			want[k] = true
		}
		for k, wp := range h.writes {
			if wp == part && durable[k.Txn] {
				want[k] = true
			}
		}
		for k := range want {
			if !got[k] {
				return fmt.Errorf("modelcheck: %v misses the effect of %v step %d", part, k.Txn, k.Step)
			}
		}
		for k := range got {
			if !want[k] {
				return fmt.Errorf("modelcheck: %v holds an effect of %v step %d that no durable commit wrote", part, k.Txn, k.Step)
			}
		}
	}
	return nil
}

// conflictOrder draws the reduced conflict order of every partition: its
// ledger filtered to pre-committed grants, each write linked to every read
// up to the next write, and each of those reads — or the write itself when
// there are none — to that next write (reads before the first write lead
// to it). Every edge is a conflict-order edge, and every pair the
// all-pairs order links (two conflicting grants, the earlier first) is
// joined by a path of them through the writes between, so both graphs
// have one transitive closure and one verdict (docs/ROBUSTNESS.md §10),
// while a partition costs O(n) edges instead of O(n²).
func (h *History) conflictOrder(edge func(a, b txn.ID)) {
	var readers []txn.ID
	for _, gs := range h.byPart {
		var writer txn.ID // 0, the reserved ID: no write yet
		readers = readers[:0]
		for _, g := range gs {
			switch {
			case !h.committed[g.id]:
			case g.mode == txn.Read:
				if writer != 0 {
					edge(writer, g.id)
				}
				readers = append(readers, g.id)
			default:
				for _, r := range readers {
					edge(r, g.id)
				}
				if len(readers) == 0 && writer != 0 {
					edge(writer, g.id)
				}
				writer, readers = g.id, readers[:0]
			}
		}
	}
}

// VerifyCommitPrefix checks that recovered, the set a restart kept, is
// closed under the execution's conflict order: in no partition does a
// recovered transaction follow a pre-committed, lost one it conflicts with
// (it may have read what that one wrote, or overwritten what it read).
func (h *History) VerifyCommitPrefix(recovered map[txn.ID]bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.commitPrefix(recovered)
}

func (h *History) commitPrefix(recovered map[txn.ID]bool) error {
	for part, gs := range h.byPart {
		var lostWriter, lostReader txn.ID // 0, the reserved ID: none yet
		for _, g := range gs {
			switch {
			case !h.committed[g.id]:
			case !recovered[g.id]:
				if g.mode == txn.Write && lostWriter == 0 {
					lostWriter = g.id
				} else if g.mode == txn.Read && lostReader == 0 {
					lostReader = g.id
				}
			case lostWriter != 0:
				return fmt.Errorf("modelcheck: %v recovered on %v without its predecessor %v, a lost writer", g.id, part, lostWriter)
			case g.mode == txn.Write && lostReader != 0:
				return fmt.Errorf("modelcheck: writer %v recovered on %v without its predecessor %v, a lost reader", g.id, part, lostReader)
			}
		}
	}
	return nil
}

// cycle reports a transaction on a cycle of succ, if there is one.
func cycle(succ map[txn.ID][]txn.ID) (at txn.ID, found bool) {
	color := make(map[txn.ID]int8, len(succ)) // 0 unseen, 1 on the path, 2 done
	var visit func(u txn.ID) bool
	visit = func(u txn.ID) bool {
		color[u] = 1
		for _, v := range succ[u] {
			if color[v] == 1 {
				at = v
				return true
			}
			if color[v] == 0 && visit(v) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range succ {
		if color[u] == 0 && visit(u) {
			return at, true
		}
	}
	return 0, false
}

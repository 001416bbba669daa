package sched

import (
	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// BatchOutcome reports one epoch flush: the per-transaction admission
// outcomes (aligned with the input slice), the batch-level control CPU
// consumed beyond the per-transaction costs (the single W recomputation
// the epoch mode exists to amortize), and the shape of the admitted set.
type BatchOutcome struct {
	// Outcomes[i] is the admission outcome of ts[i]; its CPU field
	// carries that transaction's own cost (one DDTime graph test).
	Outcomes []Outcome
	// CPU is the batch-level extra cost: one ChainTime when the whole
	// batch triggered a single plan recomputation, zero when the cached
	// W was still valid.
	CPU event.Time
	// Admitted counts Granted outcomes.
	Admitted int
	// Clusters is the number of conflict-free clusters among the
	// admitted batch members: connected components of their conflict
	// graph. Clusters can execute concurrently without ever contending
	// with each other, so this is the batch's available parallelism.
	Clusters int
}

// BatchAdmitter is the optional batch-aware surface of a Scheduler.
// A driver that admits arrivals in batches (package sim with
// Config.BatchWindow) detects it with a type assertion and admits whole
// batches through it; schedulers that do not implement it are driven
// per-arrival exactly as before, so the base Scheduler contract is
// untouched. The live controller admits per arrival only: under it EPOCH
// is CHAIN, since its decisions cost microseconds and batching them lost
// to CHAIN at every batch size and window measured (docs/PERFORMANCE.md
// §13).
//
// AdmitBatch must be equivalent to calling Admit once per transaction
// in slice order — same decisions, same resulting graph state — except
// that scheduler-internal caches may be refreshed once for the whole
// batch instead of per call (that amortization is the point). Rejected
// transactions (Delayed/Aborted) leave no state behind and are the
// caller's to resubmit, normally into the next epoch.
type BatchAdmitter interface {
	AdmitBatch(ts []*txn.T, now event.Time) BatchOutcome
}

// epoch is the EPOCH scheduler: CHAIN's optimal-order concurrency
// control driven in batch-admission mode, after Prasaad et al.'s
// epoch-based transaction scheduling (PAPERS.md) — group arrivals into
// batches, build the conflict graph for the whole batch at once,
// compute the serialization order once, and hand conflict-free clusters
// to parallel executors.
//
// Per-call behavior (Admit, Request, ObjectDone, Commit, Abort) is
// CHAIN's, inherited verbatim — with a zero batch window the EPOCH
// scheduler *is* CHAIN under another name, which the differential tests
// pin. The value added is AdmitBatch: admitting N transactions as one
// batch runs N chain-form tests but at most one W recomputation
// (chainopt.Solve over the slot-engine WTPG), where per-arrival CHAIN
// interleaves admissions with requests and recomputes W once per
// started-or-committed transaction (§3.4). CHAIN's O(N²) global
// optimum finally amortizes across the batch it orders.
type epoch struct {
	chain
}

// NewEpoch returns an EPOCH scheduler.
func NewEpoch(costs Costs) Scheduler {
	return &epoch{chain: chain{wtpgBase: newWTPGBase(costs), plan: make(map[pairKey]txn.ID)}}
}

// EpochFactory builds EPOCH schedulers.
func EpochFactory() Factory {
	return Factory{Label: "EPOCH", New: func(c Costs) Scheduler { return NewEpoch(c) }}
}

func (e *epoch) Name() string { return "EPOCH" }

// AdmitBatch admits a whole epoch's arrivals in slice order: each
// transaction pays one DDTime chain-form test (exactly Admit's cost and
// decision), then one ChainTime recomputes the optimal order W for the
// entire batch — instead of the per-started-transaction recomputes the
// interleaved per-arrival driver causes. The returned BatchOutcome also
// reports the admitted members' conflict-free clusters.
func (e *epoch) AdmitBatch(ts []*txn.T, now event.Time) BatchOutcome {
	out := BatchOutcome{Outcomes: make([]Outcome, len(ts))}
	admitted := make([]*txn.T, 0, len(ts))
	for i, t := range ts {
		o := e.chain.Admit(t, now)
		out.Outcomes[i] = o
		if o.Decision == Granted {
			admitted = append(admitted, t)
		}
	}
	out.Admitted = len(admitted)
	if len(admitted) > 0 && !e.degraded {
		// One W recomputation for the whole batch. Forcing it here (the
		// admissions above marked the plan dirty) means the batch's lock
		// requests find a fresh cached W and reuse it until the next
		// invalidating event, charging the batch a single ChainTime.
		if recomputed, err := e.refreshPlan(now); err != nil {
			e.degrade()
		} else if recomputed {
			out.CPU += e.costs.ChainTime
		}
	}
	out.Clusters = len(ConflictClusters(admitted))
	return out
}

// ConflictClusters partitions a batch into conflict-free clusters:
// connected components of the batch's conflict graph (two transactions
// are connected when wtpg.ConflictWeights finds any conflicting step
// pair). Transactions in different clusters never contend with each
// other, so their count is the batch's available parallelism — the
// simulator reports it per flush, and the scheduler's own order W
// decides who runs first inside one. Returned clusters hold indices into
// ts, each cluster in ascending index order, clusters ordered by their
// smallest member, so the output is deterministic.
func ConflictClusters(ts []*txn.T) [][]int {
	n := len(ts)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, _, ok := wtpg.ConflictWeights(ts[i], ts[j]); ok {
				union(i, j)
			}
		}
	}
	byRoot := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	// Roots are discovered in ascending index order (find(i) ≤ i and the
	// loop walks i upward), so clusters come out ordered by smallest
	// member without an extra sort.
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

package live

// This file is epoch-batch admission for the live controller: admit a
// whole batch through the scheduler's BatchAdmitter surface in one
// critical section, then run every member on its own goroutine. The
// scheduler that computed the batch-wide order W is the only thing that
// orders the batch: whichever member W prefers is always able to ask for
// its lock. (Running a conflict cluster's members one at a time on one
// worker cannot sit under such a scheduler — when W puts a later member
// first, the running one is Delayed for ever behind a transaction queued
// on its own worker; DESIGN.md §11.)

import (
	"context"
	"errors"
	"sync"

	"batsched/internal/core/sched"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// errBatchShards reports batch admission asked of a sharded controller.
// A batch is decided in one critical section over one scheduler's
// global view (EPOCH's W covers the whole batch); per-shard schedulers
// have no such view, and quietly admitting per arrival instead would
// measure a different algorithm than the one configured.
var errBatchShards = errors.New("live: batch admission (RunBatch) requires a single shard")

// RunBatch executes a batch synchronously: one batched admission
// (admitBatch), then every member on its own goroutine — through
// runAdmitted when the batch pass admitted it, through Run when it did
// not (a chain-form rejection, an injected refusal, a scheduler without
// a batch surface, a refused WAL append), so the batch path never strands
// a transaction the per-arrival path would have served. It returns each
// transaction's error in input order (nil on commit); a nil member gets
// Run's answer in its slot and the others run. Only a single-shard
// controller has batch admission to offer.
func (c *Controller) RunBatch(ctx context.Context, ts []*txn.T, work func(t *txn.T, step int, p Progress) error) []error {
	errs := make([]error, len(ts))
	if c.nshards > 1 {
		for i := range errs {
			errs[i] = errBatchShards
		}
		return errs
	}
	members := make([]*txn.T, 0, len(ts))
	for i, t := range ts {
		if t == nil {
			errs[i] = errNilTxn
			continue
		}
		members = append(members, t)
	}
	admitted := c.admitBatch(members)
	var wg sync.WaitGroup
	for i, t := range ts {
		if t == nil {
			continue
		}
		wg.Add(1)
		go func(i int, t *txn.T) {
			defer wg.Done()
			var w func(int, Progress) error
			if work != nil {
				w = func(step int, p Progress) error { return work(t, step, p) }
			}
			if admitted[t.ID] {
				errs[i] = c.runAdmitted(ctx, t, w)
			} else {
				errs[i] = c.Run(ctx, t, w)
			}
		}(i, t)
	}
	wg.Wait()
	return errs
}

// admitBatch admits as much of the batch as the scheduler's batch
// surface grants, in one critical section, and reports the flush to the
// observability pipeline. Returns the granted set (nil when the
// scheduler is not batch-capable, the controller closed, or the WAL
// refused the batch's Begin records — callers fall back to per-arrival
// admission, which surfaces the sticky WAL error).
// Members the fault injector would refuse at attempt 0 are withheld from
// the batch; their refusal fires on the per-arrival path instead,
// keeping injector decisions deterministic across both paths.
func (c *Controller) admitBatch(ts []*txn.T) map[txn.ID]bool {
	sh := c.shards[0]
	ba, ok := sh.sch.(sched.BatchAdmitter)
	if !ok {
		return nil
	}
	sh.mu.Lock()
	if c.closed.Load() || c.dur.LogErr() != nil {
		sh.mu.Unlock()
		return nil
	}
	now := c.now()
	kept := ts
	if c.inj.Enabled() {
		kept = make([]*txn.T, 0, len(ts))
		for _, t := range ts {
			if !c.inj.RefuseAdmit(t.ID, 0) {
				kept = append(kept, t)
			}
		}
	}
	for _, t := range kept {
		c.emit(obs.Event{Kind: obs.KindAdmit, At: now, Txn: t.ID})
	}
	out := ba.AdmitBatch(kept, now)
	admitted := make(map[txn.ID]bool, out.Admitted)
	granted := make([]*txn.T, 0, out.Admitted)
	for i, o := range out.Outcomes {
		if o.Decision == sched.Granted {
			admitted[kept[i].ID] = true
			granted = append(granted, kept[i])
		}
	}
	sh.stats.BatchAdmitted += uint64(len(granted))
	sh.stats.Epochs++
	c.emit(obs.Event{Kind: obs.KindEpochFlush, At: now,
		Batch: len(ts), Objects: float64(out.Admitted), Clusters: out.Clusters})
	if c.admitGranted(sh, 1, now, granted...) != nil {
		return nil
	}
	return admitted
}

package live

// This file is epoch-batch admission for the live controller: collect
// submissions for a wall-clock window, admit the whole window through
// the scheduler's BatchAdmitter surface in one critical section, then
// dispatch its conflict-free clusters to a worker pool. Transactions in
// one cluster conflict (transitively), so a
// cluster runs sequentially on one worker; distinct clusters never
// contend and run in parallel. Correctness never depends on the
// clustering — every transaction still takes every lock through the
// scheduler — it only shapes the dispatch so CHAIN's batch-computed
// order W is consumed by exactly the parallelism the batch contains.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// errBatchShards reports batch admission asked of a sharded controller.
// A window is decided in one critical section over one scheduler's
// global view (EPOCH's W covers the whole batch); per-shard schedulers
// have no such view, and quietly admitting per arrival instead would
// measure a different algorithm than the one configured.
var errBatchShards = errors.New("live: batch admission (WithBatchWindow, RunBatch) requires a single shard")

// WithBatchWindow enables epoch-batch admission: transactions handed to
// Submit are collected for wall-clock windows of d and admitted as one
// batch at each window boundary, then dispatched cluster-by-cluster to
// the epoch workers. Requires a batch-capable scheduler (EPOCH) for the
// single-critical-section admission; with any other scheduler Submit
// still works but every member admits through the per-arrival path.
// Non-positive d disables batching (Submit degenerates to a goroutine
// around Run). Combined with WithShards(n > 1) the controller is
// misconfigured: every Admit, Run, Submit and RunBatch returns an error.
func WithBatchWindow(d time.Duration) Option {
	return func(c *Controller) {
		if d > 0 {
			c.batchWindow = d
		}
	}
}

// submission is one transaction waiting in the open epoch window.
type submission struct {
	ctx  context.Context
	t    *txn.T
	work func(step int, p Progress) error
	done chan error
}

// Submit hands a transaction to the epoch collector and returns a
// channel that delivers its final error (nil on commit), exactly as Run
// would have returned it. The transaction waits for the current window
// to close, admits with the rest of the batch, and executes when its
// cluster is dispatched. Without WithBatchWindow, Submit is a goroutine
// around Run — same contract, no batching. After Close the channel
// delivers ErrClosed.
func (c *Controller) Submit(ctx context.Context, t *txn.T, work func(step int, p Progress) error) <-chan error {
	done := make(chan error, 1)
	if c.batchWindow <= 0 {
		go func() { done <- c.Run(ctx, t, work) }()
		return done
	}
	c.epochMu.Lock()
	if c.stopEpoch == nil || c.epochClosed {
		c.epochMu.Unlock()
		done <- ErrClosed
		return done
	}
	c.epochBuf = append(c.epochBuf, &submission{ctx: ctx, t: t, work: work, done: done})
	c.epochMu.Unlock()
	return done
}

// RunBatch executes a batch synchronously: one batched admission, then
// cluster dispatch over the epoch workers, returning each transaction's
// error in input order (nil on commit). It is the one-shot form of the
// Submit/window pipeline and works without WithBatchWindow — but, like
// it, only on a single-shard controller.
func (c *Controller) RunBatch(ctx context.Context, ts []*txn.T, work func(t *txn.T, step int, p Progress) error) []error {
	batch := make([]*submission, len(ts))
	for i, t := range ts {
		t := t
		var w func(int, Progress) error
		if work != nil {
			w = func(step int, p Progress) error { return work(t, step, p) }
		}
		batch[i] = &submission{ctx: ctx, t: t, work: w, done: make(chan error, 1)}
	}
	c.runEpoch(batch)
	errs := make([]error, len(batch))
	for i, s := range batch {
		errs[i] = <-s.done
	}
	return errs
}

// epochLoop is the window collector (WithBatchWindow): every window it
// swaps out the buffered submissions and processes them as one epoch,
// concurrently with the next window's collection. On shutdown, pending
// submissions fail with ErrClosed.
func (c *Controller) epochLoop() {
	defer c.epochWG.Done()
	ticker := time.NewTicker(c.batchWindow)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopEpoch:
			c.epochMu.Lock()
			c.epochClosed = true
			batch := c.epochBuf
			c.epochBuf = nil
			c.epochMu.Unlock()
			for _, s := range batch {
				s.done <- ErrClosed
			}
			return
		case <-ticker.C:
			c.epochMu.Lock()
			batch := c.epochBuf
			c.epochBuf = nil
			c.epochMu.Unlock()
			if len(batch) == 0 {
				continue
			}
			c.epochWG.Add(1)
			go func() {
				defer c.epochWG.Done()
				c.runEpoch(batch)
			}()
		}
	}
}

// runEpoch processes one closed window: batch admission in a single
// critical section (when the scheduler supports it), then cluster
// dispatch. Members the batch pass did not admit — chain-form
// rejections, injected refusals, non-batch schedulers, a refused WAL
// append — go through the blocking per-arrival Admit on their worker, so
// the epoch path never strands a transaction the normal path would have
// served. Workers take clusters off one shared cursor; a cluster's
// members run sequentially, in batch order, on the worker that took it.
func (c *Controller) runEpoch(batch []*submission) {
	if c.nshards > 1 {
		for _, s := range batch {
			s.done <- errBatchShards
		}
		return
	}
	ts := make([]*txn.T, len(batch))
	for i, s := range batch {
		ts[i] = s.t
	}
	admitted := c.admitBatch(ts)
	clusters := sched.ConflictClusters(ts)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(clusters))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= len(clusters) {
					return
				}
				for _, i := range clusters[ci] {
					s := batch[i]
					if admitted[s.t.ID] {
						s.done <- c.runAdmitted(s.ctx, s.t, s.work)
					} else {
						s.done <- c.Run(s.ctx, s.t, s.work)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// admitBatch admits as much of the batch as the scheduler's batch
// surface grants, in one critical section, and reports the flush to the
// observability pipeline. Returns the granted set (nil when the
// scheduler is not batch-capable, the controller closed, or the WAL
// refused the window's Begin records — callers fall back to per-arrival
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
	if c.closed.Load() || c.cfgErr != nil || c.dur.LogErr() != nil {
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

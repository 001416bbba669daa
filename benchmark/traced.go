package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sort"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/core/wtpg"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// The traced pass drives the transaction lifecycle through the exported
// calls — Admit, per step Acquire, Store.ScanCount + Store.Stage,
// ObjectDone, then Commit: what Controller.Run does privately — and
// records one fixed-size span record per sampled transaction. The
// scheduler factory is wrapped in a timing decorator whose spans are
// children of the enclosing live.* span, so a layer's self time is its
// span minus its children.

const (
	maxSteps   = 3     // no workload declares more steps
	maxRecords = 20000 // span records kept per repetition; transactions are sampled 1-in-k beyond it
)

// span is a half-open wall interval in ns since the recorder's origin.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// calls is a child span folded over the scheduler calls one live.* span
// made: a refused request is re-decided on every retry.
type calls struct {
	first int64 // start of the first call
	total int64 // ns inside the scheduler
	n     int32
}

// spanRec is one transaction's trace: the root, the live.* children and
// under each the scheduler time it enclosed.
type spanRec struct {
	id     txn.ID
	nsteps int
	step   int // step whose work is running, for ObjectDone attribution
	root   span

	admit      span
	schedAdmit calls
	acquire    [maxSteps]span
	schedReq   [maxSteps]calls
	scan       [maxSteps]span
	work       [maxSteps]span
	schedDone  [maxSteps]calls
	commit     span
	schedCmt   calls
}

// recorder owns the span records of one repetition. Transaction ids
// first+1..first+n are the timed ones; every k-th gets a record. A
// record is written only by the goroutine running its transaction (the
// scheduler decorator is called on that goroutine too), so it needs no
// lock.
type recorder struct {
	origin time.Time
	first  int
	k      int
	recs   []spanRec
}

func newRecorder(first, n int) *recorder {
	k := (n + maxRecords - 1) / maxRecords
	if k < 1 {
		k = 1
	}
	return &recorder{origin: time.Now(), first: first, k: k, recs: make([]spanRec, n/k+1)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// slot returns id's record, or nil for warm-up and unsampled ids.
func (r *recorder) slot(id txn.ID) *spanRec {
	i := int(id) - r.first
	if i <= 0 || i%r.k != 0 {
		return nil
	}
	return &r.recs[i/r.k]
}

// schedAgg totals every scheduler call of one repetition. One shard
// means one scheduler, whose calls the shard lock serializes.
type schedAgg struct {
	admit, request, done, commit calls
	decisions, granted           int64
}

// timedSched is the benchmark's timing decorator. Like sched.Observed
// it forwards GraphHolder, Aborter and Degradable, which the controller
// discovers by type assertion: without them WAL predecessor sets come
// back empty and aborts take the commit path.
type timedSched struct {
	inner sched.Scheduler
	agg   *schedAgg
	rec   *recorder // nil under the simulator
}

func timedFactory(f sched.Factory, agg *schedAgg, rec *recorder) sched.Factory {
	inner := f.New
	f.New = func(c sched.Costs) sched.Scheduler {
		return &timedSched{inner: inner(c), agg: agg, rec: rec}
	}
	return f
}

func (c *calls) add(start, origin time.Time, d time.Duration) {
	if c.n == 0 {
		c.first = int64(start.Sub(origin))
	}
	c.total += int64(d)
	c.n++
}

// note books one scheduler call into the repetition totals and, for a
// sampled transaction, into the record field pick selects.
func (w *timedSched) note(total *calls, id txn.ID, start time.Time, pick func(*spanRec) *calls) {
	d := time.Since(start)
	total.total += int64(d)
	total.n++
	if w.rec == nil {
		return
	}
	if r := w.rec.slot(id); r != nil {
		pick(r).add(start, w.rec.origin, d)
	}
}

func (w *timedSched) Name() string { return w.inner.Name() }

func (w *timedSched) Admit(t *txn.T, now event.Time) sched.Outcome {
	start := time.Now()
	out := w.inner.Admit(t, now)
	w.note(&w.agg.admit, t.ID, start, func(r *spanRec) *calls { return &r.schedAdmit })
	w.decided(out)
	return out
}

func (w *timedSched) Request(t *txn.T, step int, now event.Time) sched.Outcome {
	start := time.Now()
	out := w.inner.Request(t, step, now)
	w.note(&w.agg.request, t.ID, start, func(r *spanRec) *calls { return &r.schedReq[step] })
	w.decided(out)
	return out
}

func (w *timedSched) decided(out sched.Outcome) {
	w.agg.decisions++
	if out.Decision == sched.Granted {
		w.agg.granted++
	}
}

func (w *timedSched) ObjectDone(t *txn.T, objects float64, now event.Time) {
	start := time.Now()
	w.inner.ObjectDone(t, objects, now)
	w.note(&w.agg.done, t.ID, start, func(r *spanRec) *calls { return &r.schedDone[r.step] })
}

func (w *timedSched) Commit(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	start := time.Now()
	freed, cpu := w.inner.Commit(t, now)
	w.note(&w.agg.commit, t.ID, start, func(r *spanRec) *calls { return &r.schedCmt })
	return freed, cpu
}

func (w *timedSched) Abort(t *txn.T, now event.Time) ([]txn.PartitionID, event.Time) {
	return sched.AbortTxn(w.inner, t, now)
}

func (w *timedSched) CheckInvariants() error {
	if c, ok := w.inner.(interface{ CheckInvariants() error }); ok {
		return c.CheckInvariants()
	}
	return nil
}

func (w *timedSched) Graph() *wtpg.Graph {
	if gh, ok := w.inner.(sched.GraphHolder); ok {
		return gh.Graph()
	}
	return nil
}

func (w *timedSched) Degraded() bool {
	d, ok := w.inner.(sched.Degradable)
	return ok && d.Degraded()
}

// tracedRun is Controller.Run spelled out through the exported calls,
// with a span around each.
func tracedRun(ctx context.Context, s *stack, t *txn.T, rec *recorder, scratch *spanRec) error {
	r := rec.slot(t.ID)
	if r == nil {
		r = scratch // unsampled: same calls, record discarded
	}
	r.id, r.nsteps = t.ID, len(t.Steps)
	r.root.start = rec.now()
	r.admit.start = r.root.start
	err := s.ctl.Admit(ctx, t)
	r.admit.end = rec.now()
	if err != nil {
		return err
	}
	for i, st := range t.Steps {
		r.acquire[i].start = r.admit.end
		if i > 0 {
			r.acquire[i].start = r.work[i-1].end
		}
		if err := s.ctl.Acquire(ctx, t, i); err != nil {
			s.ctl.Abort(t)
			return err
		}
		r.acquire[i].end = rec.now()
		r.scan[i].start = r.acquire[i].end
		if s.store != nil {
			if _, err := s.store.ScanCount(st.Part); err != nil {
				s.ctl.Abort(t)
				return err
			}
			if st.Mode == txn.Write {
				s.store.Stage(t.ID, i, st.Part)
			}
		}
		r.scan[i].end = rec.now()
		r.work[i].start = r.scan[i].end
		r.step = i
		unitObjects(st.Cost, func(objects float64) { s.ctl.ObjectDone(t, objects) })
		r.work[i].end = rec.now()
	}
	r.commit.start = r.work[r.nsteps-1].end
	err = s.ctl.Commit(t)
	r.commit.end = rec.now()
	r.root.end = r.commit.end
	return err
}

// metrics folds the span records and scheduler totals of a traced
// repetition into per-layer metrics.
func (rec *recorder) metrics(v values, agg *schedAgg, stored bool, wall time.Duration, commits float64) {
	var admit, acquire, commit, scan []float64
	var root, children, waitNS, doneNS, doneCalls float64
	for i := range rec.recs {
		r := &rec.recs[i]
		if r.root.end == 0 {
			continue // unused slot or failed transaction
		}
		root += float64(r.root.dur())
		admit = append(admit, float64(r.admit.dur()))
		commit = append(commit, float64(r.commit.dur()))
		children += float64(r.admit.dur() + r.commit.dur())
		waitNS += float64(r.admit.dur() - r.schedAdmit.total)
		for s := 0; s < r.nsteps; s++ {
			acquire = append(acquire, float64(r.acquire[s].dur()))
			scan = append(scan, float64(r.scan[s].dur()))
			children += float64(r.acquire[s].dur() + r.scan[s].dur() + r.work[s].dur())
			waitNS += float64(r.acquire[s].dur() - r.schedReq[s].total)
			doneNS += float64(r.work[s].dur())
			doneCalls += float64(r.schedDone[s].n)
		}
	}
	if root == 0 {
		return
	}
	sort.Float64s(admit)
	sort.Float64s(acquire)
	sort.Float64s(commit)
	sort.Float64s(scan)
	v["live.admit_us_p50"] = quantile(admit, 0.50) / 1e3
	v["live.admit_us_p99"] = quantile(admit, 0.99) / 1e3
	v["live.acquire_us_p50"] = quantile(acquire, 0.50) / 1e3
	v["live.acquire_us_p99"] = quantile(acquire, 0.99) / 1e3
	v["live.commit_us_p50"] = quantile(commit, 0.50) / 1e3
	v["live.commit_us_p99"] = quantile(commit, 0.99) / 1e3
	if doneCalls > 0 {
		v["live.objectdone_us_mean"] = doneNS / doneCalls / 1e3
	}
	v["live.wait_share"] = waitNS / root
	if stored {
		v["storage.scan_us_p50"] = quantile(scan, 0.50) / 1e3
		v["storage.scan_us_p99"] = quantile(scan, 0.99) / 1e3
	}
	v["bench.span_coverage"] = children / root
	agg.metrics(v, wall, commits)
}

// metrics reports the scheduler-call totals: mean time per call, calls
// and grants per decision, and the share of wall time spent deciding.
func (a *schedAgg) metrics(v values, wall time.Duration, commits float64) {
	mean := func(c calls) float64 {
		if c.n == 0 {
			return 0
		}
		return float64(c.total) / float64(c.n) / 1e3
	}
	v["sched.admit_us_mean"] = mean(a.admit)
	v["sched.request_us_mean"] = mean(a.request)
	v["sched.commit_us_mean"] = mean(a.commit)
	v["sched.calls_per_txn"] = float64(a.decisions) / commits
	if a.decisions > 0 {
		v["sched.grant_ratio"] = float64(a.granted) / float64(a.decisions)
	}
	v["sched.busy_share"] = float64(a.admit.total+a.request.total+a.done.total+a.commit.total) / float64(wall)
}

// writeSpans writes the records as JSON lines, one span per line: the
// txn root, its live.*/storage.scan/caller.work children, and under
// those the folded scheduler calls.
func (rec *recorder) writeSpans(w io.Writer, workload string) error {
	type line struct {
		Workload string `json:"workload"`
		Txn      int64  `json:"txn"`
		Span     string `json:"span"`
		Parent   string `json:"parent,omitempty"`
		Step     *int   `json:"step,omitempty"`
		StartNS  int64  `json:"start_ns"`
		DurNS    int64  `json:"dur_ns"`
		Calls    int32  `json:"calls,omitempty"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range rec.recs {
		r := &rec.recs[i]
		if r.root.end == 0 {
			continue
		}
		put := func(name, parent string, step *int, s span) {
			enc.Encode(line{workload, int64(r.id), name, parent, step, s.start, s.dur(), 0})
		}
		sched := func(name, parent string, step *int, c calls) {
			if c.n > 0 {
				enc.Encode(line{workload, int64(r.id), name, parent, step, c.first, c.total, c.n})
			}
		}
		put("txn", "", nil, r.root)
		put("live.admit", "txn", nil, r.admit)
		sched("sched.admit", "live.admit", nil, r.schedAdmit)
		for s := 0; s < r.nsteps; s++ {
			step := s
			put("live.acquire", "txn", &step, r.acquire[s])
			sched("sched.request", "live.acquire", &step, r.schedReq[s])
			put("storage.scan", "txn", &step, r.scan[s])
			put("caller.work", "txn", &step, r.work[s])
			sched("sched.objectdone", "caller.work", &step, r.schedDone[s])
		}
		put("live.commit", "txn", nil, r.commit)
		sched("sched.commit", "live.commit", nil, r.schedCmt)
	}
	return bw.Flush()
}

// Package live runs the paper's concurrency-control schedulers against
// real goroutines, turning the simulated control node into an in-process
// lock manager. Where package sim *models* a shared-nothing machine,
// live schedules actual work: each transaction is a goroutine that
// declares its steps up front, acquires each step's partition lock
// through the scheduler (CHAIN, K-WTPG, C2PL, ASL, …), runs caller code
// while holding it, and releases everything at commit.
//
// The controller is the paper's centralized control node: one mutex
// guards one scheduler instance — its lock table, WTPG and admission
// policy — and the wait state, so every decision, CHAIN's globally
// optimal order W included, is made over the whole WTPG (DESIGN.md §13).
// Each lifecycle step takes the mutex once — an admission, a step, an
// object message, the finish (twice with a log or a store) — and leaves
// through one deferred exit (exit).
//
// A refused request or admission parks until an event that can change
// the answer, then asks the scheduler again, in the section that ends
// its park — it re-decides for itself; nothing is handed to it. The wake
// events are a commit, an abort, a granted admission (it dirties CHAIN's
// W and K-WTPG's E(q) cache) and Close. A granted lock request changes
// the inputs too but wakes nobody; instead, when the last running
// transaction parks, everything refused before the current decision
// generation is re-dispatched once (waitLocked). Together these are
// complete: no wait needs a timer to make progress. The paper's
// fixed-delay resubmission (§3.2, WithRetryDelay) remains for
// policy-Delayed requests alone, as a re-timing. All the guarantees of
// the scheduler carry over: conflicting holders never coexist and
// schedules are conflict serializable (every scheduler is strict — locks
// are held to commit).
// The controller never aborts an admitted transaction on its own: an
// abort is the caller's — a work error, a recovered panic in caller work,
// or the caller's ctx ending while the transaction waits. The schedulers
// are cautious, so no wait closes a cycle, and the controller starts no
// goroutine: a caller whose work never returns stalls only the
// transactions that wait for it, and each of those is ended by its own
// ctx (see docs/ROBUSTNESS.md).
//
// Construction uses functional options:
//
//	ctl := live.New(sched.KWTPGFactory(2), sched.Costs{KeepTime: 100},
//		live.WithRetryDelay(time.Millisecond),
//		live.WithObserver(sink))
//
// Every blocking method takes a context.Context first, so callers get
// cancellation and timeouts; Close remains the whole-controller
// shutdown and keeps its ErrClosed semantics. Transactions usually go
// through Run, but the admission/acquire/commit primitives are exported
// for callers that need step-level control.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/idmap"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
)

// Option configures a Controller at construction.
type Option func(*Controller)

// WithRetryDelay sets the paper's fixed resubmission delay (§3.2) for
// policy-Delayed lock requests (default 20 ms of wall time; live
// workloads want faster retries than the simulated 500 ms because
// ObjTime here is real work, usually far below 1 s). A Delayed request's
// inputs move with every grant and weight message, so besides the wake
// events every wait has it is re-asked after this delay; Blocked requests
// and refused admissions wait for events only, and no wait depends on the
// delay for progress (TestProgressNeverNeedsRetryDelay runs with an
// hour). Non-positive values keep the default.
func WithRetryDelay(d time.Duration) Option {
	return func(c *Controller) {
		if d > 0 {
			c.retryDelay = d
		}
	}
}

// WithObserver attaches a structured trace observer: the controller
// emits timeline events (Admit, Request, ObjectDone, Commit) and wraps
// its scheduler with sched.Observed so every decision, WTPG edge
// resolution and critical-path change is reported too. Those events are
// emitted under the controller's mutex, so their order matches decision
// order; the durability events (WAL sync, page traffic) come from the
// callers' goroutines outside it, so observers must be safe for
// concurrent use — the obs sinks (Ring, JSONL, Metrics) all qualify.
func WithObserver(o obs.Observer) Option {
	return func(c *Controller) { c.observer = o }
}

// WithShards is a no-op: the controller has one shard, the paper's one
// control node (DESIGN.md §13). It stays declared only because
// benchmark/live.go passes it and benchmark/ is frozen by
// BENCHMARK.json; it leaves with live.txn_per_s_shards16 in the next
// benchmark change.
func WithShards(int) Option { return func(*Controller) {} }

// Stats is a consistent snapshot of the controller's lifetime counters.
type Stats struct {
	// Admitted counts granted admissions; Committed and Aborted split
	// the finished transactions by outcome. An abort is the caller
	// abandoning an admitted transaction (a work error, a cancellation,
	// a recovered panic).
	Admitted  uint64
	Committed uint64
	Aborted   uint64
	// Granted counts granted step locks.
	Granted uint64
	// Retries counts retry waits (refused admissions and requests).
	Retries uint64
	// Active is the number of currently admitted, unfinished
	// transactions at snapshot time.
	Active int
}

// Controller is a live lock manager driven by one of the paper's
// schedulers. Create with New; safe for concurrent use. A panic under its
// mutex — the scheduler's or the observer's — breaks it: every call that
// needs the scheduler then fails naming it.
type Controller struct {
	label  string
	start  time.Time
	closed atomic.Bool

	retryDelay time.Duration
	observer   obs.Observer

	// Durability (WithWALLog, WithStorage — see wal.go, storage.go): wal
	// is the caller's open log (the controller's own, walOwned, only when
	// Recover built it), store the heap files granted steps scan. logErr
	// and storeErr are the write-ahead contract's sticky first failures,
	// and schedErr the first panic under mu (see exit), all read
	// lock-free on the hot path. mu is never held while the log's own
	// mutex is taken: preCommitLocked releases it. With recovered
	// set (Recover over a log that committed something), maxRecovered is
	// the highest id that log names, and Admit refuses every id at or
	// below it.
	wal          *wal.Log
	walOwned     bool
	store        *storage.Store
	logErr       atomic.Pointer[error]
	storeErr     atomic.Pointer[error]
	schedErr     atomic.Pointer[error]
	recovered    bool
	maxRecovered txn.ID

	// mu guards everything below: the scheduler — lock table, WTPG,
	// admission policy — the wait state, the control records and the
	// counters.
	mu  sync.Mutex
	sch sched.Scheduler

	// The wait state (see waitLocked). wake is the channel parked
	// goroutines sleep on: made by the first of them, closed and dropped
	// by the next wake event, so an event nobody waits for costs one nil
	// check. gen is the decision generation: it counts what moves the
	// scheduler's state, caches included, without being a wake event — a
	// request its policy answered, a weight message — and wakeGen is its
	// value when wake was made, so while the two are equal everyone parked
	// on wake was refused by the state the scheduler is still in. active
	// counts the admitted transactions from their admission until the
	// scheduler drops their locks; parked those of them asleep in Acquire
	// on wake (a wake event counts them running again at once, before they
	// have re-locked).
	wake    chan struct{}
	gen     uint64
	wakeGen uint64
	active  int
	parked  int

	// txns holds the control record of every admitted, unfinished
	// transaction (its length drives Stats.Active); free recycles finished
	// records, so steady-state admission allocates nothing. stats holds
	// the lifetime counters.
	txns  idmap.Map[*ltxn]
	free  []*ltxn
	stats Stats
}

// ltxn is the control record of one admitted transaction — the live
// counterpart of the paper's control-node entry (§3.1) and of sim's
// txnState. admitGranted creates it, finish removes it, the controller's
// mutex guards it, and every field is there whichever options are set.
type ltxn struct {
	// admitted is the admission time (commit-event response times).
	admitted event.Time

	// wait is the channel the transaction sleeps on while parked in
	// Acquire (see blocked), nil otherwise.
	wait chan struct{}
	// resubmit is the §3.2 fixed-delay timer of a Delayed wait: made by
	// the record's first, re-armed by every later one and stopped and
	// drained when each ends, so it holds no tick between waits. It
	// outlives the transaction: admitGranted carries it into the recycled
	// record's next life.
	resubmit *time.Timer

	// preds is the predecessor set resolved at admission, read only
	// while a healthy log is attached: the Commit record carries it with
	// the set resolved at commit.
	preds []txn.ID
}

// blocked reports whether the transaction is parked in Acquire.
func (r *ltxn) blocked() bool { return r.wait != nil }

// errNilTxn is what Run, Admit, Acquire, Commit and Abort answer for a
// nil transaction.
var errNilTxn = errors.New("live: nil transaction")

// errNotAdmitted is what Acquire, Commit and Abort return for a
// transaction with no control record: never admitted or already finished.
func errNotAdmitted(id txn.ID) error {
	return fmt.Errorf("live: %v is not an admitted transaction", id)
}

// ErrClosed is returned when the controller has been shut down.
var ErrClosed = errors.New("live: controller closed")

// New builds a controller around a scheduler factory, e.g.
//
//	ctl := live.New(sched.KWTPGFactory(2), sched.Costs{KeepTime: 100})
//
// The CPU-cost fields of Costs are ignored (decisions take however long
// they take); KeepTime still bounds W/E cache staleness, measured in
// wall-clock milliseconds.
func New(factory sched.Factory, costs sched.Costs, opts ...Option) *Controller {
	c := &Controller{
		start:      time.Now(),
		retryDelay: 20 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.sch = factory.New(costs)
	c.label = c.sch.Name()
	if c.observer != nil {
		c.sch = sched.Observed(c.sch, c.observer)
	}
	if c.store != nil {
		if c.wal != nil {
			c.store.SetWriteBarrier(func() error { return c.force(c.now()) })
		}
		c.store.Bind(c.observer, c.label, c.now)
	}
	return c
}

// now maps wall time onto the scheduler's clock (ms since start).
func (c *Controller) now() event.Time {
	return event.Time(time.Since(c.start).Milliseconds())
}

// emit sends one trace event. The obs sinks are safe for concurrent
// use, so no controller lock is needed; callers holding mu keep event
// order aligned with decision order, and the hot paths build no event
// without an observer.
func (c *Controller) emit(e obs.Event) {
	if c.observer == nil {
		return
	}
	e.Sched = c.label
	e.WallNS = time.Now().UnixNano()
	c.observer.Observe(e)
}

// Stats returns a consistent snapshot of the lifetime counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Active = c.txns.Len()
	return s
}

// CheckInvariants runs the scheduler's internal consistency checks (no
// conflicting lock holders, acyclic WTPG) under the controller's mutex.
// The chaos tests call it after every injected fault.
func (c *Controller) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := load(&c.schedErr); err != nil {
		return err
	}
	if ci, ok := c.sch.(interface{ CheckInvariants() error }); ok {
		return ci.CheckInvariants()
	}
	return nil
}

// Close shuts the controller down; subsequent or blocked operations
// return ErrClosed.
func (c *Controller) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.mu.Lock()
	c.broadcastLocked()
	c.mu.Unlock()
	if c.walOwned && c.wal != nil {
		c.wal.Close()
	}
}

// exit is the one way out of every entry point's section: each takes
// c.mu and defers exit at once, and exit releases it. A panic under c.mu
// — the scheduler's or the observer's, which runs inside the section —
// may have left the scheduler half-way through a change, so exit
// recovers it and breaks the controller: it latches schedErr naming op
// and the panic, wakes everything parked and returns the error in *err.
// From then on every call that needs the scheduler fails with it; Stats
// and Close still answer.
func (c *Controller) exit(op string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("live: %s panicked: %v", op, r)
		latch(&c.schedErr, *err)
		c.broadcastLocked()
	}
	c.mu.Unlock()
}

// unusable is ErrClosed after Close, and the latched panic once one broke
// the controller (see exit).
func (c *Controller) unusable() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return load(&c.schedErr)
}

// changedLocked records that the scheduler's state moved without waking
// anyone: requests refused before it were decided on inputs that may no
// longer hold. Callers must hold c.mu.
func (c *Controller) changedLocked() { c.gen++ }

// broadcastLocked is a wake event: the scheduler's state moved in a way
// that can turn a refusal into a grant (a commit, an abort, a granted
// admission), or the controller closed or broke. Everything parked
// re-decides. Callers must hold c.mu.
func (c *Controller) broadcastLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake, c.parked = nil, 0
	}
}

// unparkLocked ends r's park. A wake event already counted everything on
// the channel it closed as running again; a record that leaves on its own
// (ctx, the §3.2 timer, a concurrent finish) is still counted on the live
// one.
func (c *Controller) unparkLocked(r *ltxn) {
	if r.wait == c.wake {
		c.parked--
	}
	r.wait = nil
}

// waitLocked parks the caller after dec refused it under c.mu, and
// returns holding c.mu again, the park ended, for the caller to re-decide
// in. r is the record of a transaction parked in Acquire, nil for a
// refused admission. The wait is registered and c.wake captured in the
// refusal's section, so no wake event between the decision and the sleep
// is missed, and what it sleeps on is events alone: the next wake event,
// or ctx. Two things complete the event set.
//
// Quiescence: a granted request changes what a refusal was decided on but
// wakes nobody (waking on every grant costs more than it finds), and a
// request the policy Delayed may have refreshed the cached plan it was
// answered from. If this park leaves no admitted transaction running,
// nothing is left to produce a wake event, so whoever was refused before
// the current generation is re-dispatched now, once. Progress never
// waits for a timer.
//
// The paper's fixed-delay resubmission (§3.2): a Delayed request — refused
// by policy, not by a held lock — also wakes after the retry delay, on its
// record's resubmit timer. Its inputs move with every grant and weight
// message, so it is re-timed rather than left to the next commit; nothing
// depends on it.
//
// This is the one place a record pointer outlives a critical section,
// which is why finish never recycles a blocked record.
func (c *Controller) waitLocked(ctx context.Context, r *ltxn, dec sched.Decision) error {
	c.stats.Retries++
	running := c.active - c.parked
	if r != nil {
		running-- // this one is about to park
	}
	if running == 0 && c.wake != nil && c.wakeGen != c.gen {
		c.broadcastLocked()
	}
	if c.wake == nil {
		c.wake, c.wakeGen = make(chan struct{}), c.gen
	}
	ch, done := c.wake, ctx.Done() // nothing the unlocked part calls can panic
	if r != nil {
		r.wait = ch
		c.parked++
	}
	c.mu.Unlock()
	var resubmit <-chan time.Time // nil, never ready, unless Delayed
	if r != nil && dec == sched.Delayed {
		if r.resubmit == nil {
			r.resubmit = time.NewTimer(c.retryDelay)
		} else {
			r.resubmit.Reset(c.retryDelay)
		}
		resubmit = r.resubmit.C
	}
	select {
	case <-ch:
	case <-resubmit:
	case <-done:
	}
	if resubmit != nil && !r.resubmit.Stop() {
		// It fired: drain a tick this wait did not take, or the next
		// wait's Reset would find it at once (pre-Go 1.23 timer channels).
		select {
		case <-r.resubmit.C:
		default:
		}
	}
	c.mu.Lock()
	if r != nil && r.blocked() { // else a concurrent finish already unparked it
		c.unparkLocked(r)
	}
	return ctx.Err()
}

// admitGranted is the admission section's tail once the scheduler has
// granted t: count it and create its control record — with a log, the
// resolved predecessors, read while the predecessor set is still atomic
// with the grant. A panic there leaves no record behind.
func (c *Controller) admitGranted(now event.Time, t *txn.T) {
	var preds []txn.ID
	if c.logs() {
		preds = sched.Predecessors(c.sch, t.ID)
	}
	c.stats.Admitted++
	var r *ltxn
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(ltxn)
	}
	*r = ltxn{admitted: now, resubmit: r.resubmit, preds: preds}
	c.txns.Put(t.ID, r)
	// A granted admission is a wake event: it dirties the scheduler's
	// cached plan (CHAIN's W, K-WTPG's E(q)), so a request Delayed under
	// the old one may be grantable under the next.
	c.active++
	c.broadcastLocked()
}

// Progress reports completed work to the scheduler, adjusting the
// transaction's WTPG weight (the §3.1 object messages). Step work
// functions receive one.
type Progress func(objects float64)

// Run executes one declared transaction: admission, then each step under
// its lock, then commit. The work callback runs for every step while the
// step's lock is held; it receives the step index and a Progress
// callback for weight accounting. A non-nil work error aborts the
// transaction: all locks are released (the work already done is the
// caller's to undo) and the error is returned. Context cancellation
// behaves the same way, also while Run waits for a lock; it is the one
// way to end a wait behind a holder whose work never returns. A panic in
// the work callback is recovered: the transaction aborts (locks released,
// other transactions unaffected) and Run returns the panic as an error.
func (c *Controller) Run(ctx context.Context, t *txn.T, work func(step int, p Progress) error) (err error) {
	if err := c.Admit(ctx, t); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			c.Abort(t)
			if e, ok := r.(error); ok {
				err = fmt.Errorf("live: %v: recovered panic: %w", t.ID, e)
			} else {
				err = fmt.Errorf("live: %v: recovered panic: %v", t.ID, r)
			}
		}
	}()
	progress := func(objects float64) { c.ObjectDone(t, objects) }
	for step := range t.Steps {
		if err := c.Acquire(ctx, t, step); err != nil {
			c.Abort(t)
			return err
		}
		if err := c.storeStep(t, step); err != nil {
			c.Abort(t)
			return err
		}
		if work != nil {
			if err := work(step, progress); err != nil {
				c.Abort(t)
				return fmt.Errorf("live: %v step %d: %w", t.ID, step, err)
			}
		}
	}
	return c.Commit(t)
}

// Admit blocks until the scheduler admits t (or ctx ends, or the
// controller closes). After a successful Admit the caller owns the
// transaction's lifecycle and must finish it with Commit or Abort.
// Most callers want Run instead.
//
// One section: take the mutex, ask, and on a refusal wait for the next
// wake event (waitLocked) and ask again. A controller built by Recover
// refuses, at once, an id at or below the highest one its log names:
// a second Commit record for that id would make the log unrecoverable.
// With a store attached it refuses, at once too, a transaction with a
// step on a partition the store lacks: its commit could apply no effect
// there, and a restart could not redo its record. A demand outside
// [0, txn.MaxDemand] (txn.T.CheckDemands) is refused at once as well: the
// schedulers trust their demands. No family's Admit reads the clock, so
// only an observer makes Admit read it.
func (c *Controller) Admit(ctx context.Context, t *txn.T) (err error) {
	if t == nil {
		return errNilTxn
	}
	if c.recovered && t.ID <= c.maxRecovered {
		return fmt.Errorf("live: %v: the recovered log names ids up to %v; admit a higher one", t.ID, c.maxRecovered)
	}
	if err := t.CheckDemands(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if err := c.checkParts(t); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.exit("Admit", &err)
	var now event.Time
	for attempt := 0; ; attempt++ {
		if err := c.unusable(); err != nil {
			return err
		}
		if c.observer != nil {
			now = c.now()
			if attempt == 0 {
				c.emit(obs.Event{Kind: obs.KindAdmit, At: now, Txn: t.ID})
			}
		}
		if err := load(&c.logErr); err != nil {
			// Durability was requested and is broken (an IO failure):
			// admitting would run the transaction unlogged.
			return fmt.Errorf("live: wal: %w", err)
		}
		dec := c.sch.Admit(t, now).Decision
		if dec == sched.Granted {
			c.admitGranted(now, t)
			return nil
		}
		if err := c.waitLocked(ctx, nil, dec); err != nil {
			return err
		}
	}
}

// Acquire blocks until the lock needed by step of t is granted (or ctx
// ends, or the controller closes). Valid only between Admit and
// Commit/Abort: on a transaction the controller does not consider
// admitted, a nil one or a step t does not declare it returns an error
// at once. A Blocked or Delayed answer parks it until the scheduler's
// state moves (waitLocked), and it re-decides in the section that ends
// the park.
func (c *Controller) Acquire(ctx context.Context, t *txn.T, step int) (err error) {
	if t == nil {
		return errNilTxn
	}
	if step < 0 || step >= len(t.Steps) {
		return fmt.Errorf("live: %v has no step %d", t.ID, step)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.exit("Acquire", &err)
	for attempt := 0; ; attempt++ {
		if err := c.unusable(); err != nil {
			return err
		}
		r, _ := c.txns.Get(t.ID)
		if r == nil {
			return errNotAdmitted(t.ID)
		}
		now := c.now() // CHAIN's W and K-WTPG's E(q) age by it
		if attempt == 0 && c.observer != nil {
			c.emit(obs.Event{Kind: obs.KindRequest, At: now, Txn: t.ID, Step: step, Part: t.Steps[step].Part,
				Write: t.Steps[step].Mode == txn.Write})
		}
		dec := c.sch.Request(t, step, now).Decision
		if dec != sched.Blocked {
			// The policy ran: a grant moved the graph, and even a Delayed
			// answer may have come from a cached plan (W, E(q)) the call
			// itself refreshed because KeepTime had passed.
			c.changedLocked()
		}
		if dec == sched.Granted {
			c.stats.Granted++
			return nil
		}
		if err := c.waitLocked(ctx, r, dec); err != nil {
			return err
		}
	}
}

// ObjectDone reports completed work for an admitted transaction — the
// §3.1 weight-adjustment message behind the Progress callback. On a nil
// transaction, one the controller does not consider admitted, or a count
// that is not a txn.ValidDemand, it does nothing: a negative count would
// raise w(T0→Ti) above the declared demand, without bound.
func (c *Controller) ObjectDone(t *txn.T, objects float64) {
	if t == nil || !txn.ValidDemand(objects) {
		return
	}
	var err error // a panic's; ObjectDone returns nothing, so the next call reports it
	c.mu.Lock()
	defer c.exit("ObjectDone", &err)
	if r, _ := c.txns.Get(t.ID); r == nil || load(&c.schedErr) != nil {
		return
	}
	var now event.Time // only an observer reads it; no scheduler does
	if c.observer != nil {
		now = c.now()
	}
	c.sch.ObjectDone(t, objects, now)
	c.changedLocked()
	if c.observer != nil {
		c.emit(obs.Event{Kind: obs.KindObjectDone, At: now, Txn: t.ID, Objects: objects})
	}
}

// Commit finishes an admitted transaction: all its locks drop and
// waiters wake, and — with a WAL — it returns nil only after a force
// covered its Commit record (the locks drop before that force, see
// finish). It returns an error for a transaction the controller does
// not consider admitted (double finish, never admitted), and a wrapped
// durability error when the Commit record could not be appended: then
// the "commit" ran the abort-recovery path and the transaction is
// aborted. An error naming a record "not durable", or a commit "in
// doubt", is an in-doubt outcome: the transaction pre-committed, then the
// force failed or a panic broke the controller (see exit); only a
// restart's replay decides.
func (c *Controller) Commit(t *txn.T) error {
	now, pre, err := c.finish(t, true)
	switch {
	case pre && err != nil:
		return fmt.Errorf("live: %v: commit in doubt: %w", t.ID, err)
	case pre:
		if err := c.force(now); err != nil {
			// Successors may have read the effects; the sticky errors fail
			// every later admission, commit and page write.
			return fmt.Errorf("live: %v: commit record not durable: %w", t.ID, err)
		}
	}
	return err
}

// Abort abandons an admitted transaction (work error, cancellation,
// recovered panic): its locks are released through the
// scheduler's abort-recovery path — unresolved conflicting-edges
// retracted, resolved precedence spliced past it — and waiters wake.
// Undoing completed work is the caller's responsibility. It returns an
// error only for a transaction the controller does not consider
// admitted, or once a panic has broken the controller (see exit).
func (c *Controller) Abort(t *txn.T) error {
	_, _, err := c.finish(t, false)
	return err
}

// finish is a pre-commit in the sense of Yao et al.'s dependency logging
// (PAPERS.md): the partition locks drop once the Commit record is
// appended, and the caller is acknowledged once it is durable. What each
// step guarantees is the write-ahead contract of wal.go; the order, for a
// commit, all in one section of c.mu except where step 2 says:
//
//  1. claim the finish — validate, add the predecessor set resolved now,
//     while t is still in the WTPG, to the one read at admission, and drop
//     t's control record so no concurrent finish can touch it;
//  2. only with a log or a store attached, and with c.mu released
//     (preCommitLocked), but with t still holding its partition locks in
//     the scheduler: append the record to walNode's file, apply the
//     footprint's write effects to cached pages; a successor's scan sees
//     them. Nothing of t is visible yet, so a refusal still flips cleanly
//     to an abort;
//  3. apply the completion to the scheduler — the partition locks drop
//     here — and wake the waiters;
//  4. after the section, Commit forces, and returns nil only after the
//     force returns.
//
// pre reports that step 2 ran: from then on the outcome is the log's. A
// crash between 3 and 4 can lose a pre-committed record while a later one
// survives in another node file; recovery keeps only the gap-free prefix
// of the append order, so that successor is lost with it. An abort skips
// steps 2 and 4. Only the record and the trace read the clock.
func (c *Controller) finish(t *txn.T, commit bool) (now event.Time, pre bool, err error) {
	if t == nil {
		return 0, false, errNilTxn
	}
	c.mu.Lock()
	defer c.exit("finish", &err)
	if err := load(&c.schedErr); err != nil {
		return 0, false, fmt.Errorf("live: %v: %w", t.ID, err)
	}
	r, _ := c.txns.Get(t.ID)
	if r == nil {
		return 0, false, errNotAdmitted(t.ID)
	}
	if c.observer != nil || c.wal != nil {
		now = c.now()
	}
	start, preds := r.admitted, r.preds
	if commit && c.logs() {
		preds = append(preds, sched.Predecessors(c.sch, t.ID)...)
	}
	c.txns.Delete(t.ID)
	if r.blocked() { // a parked Acquire still holds r (see waitLocked)
		c.unparkLocked(r)
	} else {
		c.free = append(c.free, r)
	}
	if commit && (c.wal != nil || c.store != nil) {
		pre = true
		if err = c.preCommitLocked(t, preds, now); err != nil {
			commit, pre = false, false
			err = fmt.Errorf("live: %v: %w", t.ID, err)
		}
		if c.observer != nil {
			now = c.now()
		}
	}
	outcome := ""
	if commit {
		c.sch.Commit(t, now)
		c.stats.Committed++
	} else {
		c.sch.Abort(t, now)
		c.stats.Aborted++
		outcome = "aborted"
	}
	c.active--
	if c.observer != nil {
		c.emit(obs.Event{Kind: obs.KindCommit, At: now, Txn: t.ID, RT: now - start, Decision: outcome})
	}
	c.broadcastLocked()
	return now, pre, err
}

// Package live runs the paper's concurrency-control schedulers against
// real goroutines, turning the simulated control node into an in-process
// lock manager. Where package sim *models* a shared-nothing machine,
// live schedules actual work: each transaction is a goroutine that
// declares its steps up front, acquires each step's partition lock
// through the scheduler (CHAIN, K-WTPG, C2PL, ASL, …), runs caller code
// while holding it, and releases everything at commit.
//
// The controller partitions its hot path into shards (WithShards): each
// shard owns a slice of the partition space — ownership hashing, see
// shard.go — with its own mutex, scheduler instance, lock table, WTPG
// and wait state. A transaction whose footprint lies in one shard
// (the common case under CHAIN/K-WTPG) schedules entirely under that
// shard's lock and never touches another shard; a
// transaction spanning shards takes the shard locks in canonical
// ascending order and acquires all of its locks atomically at admission
// (ASL-style, see admitProjectedLocked). The default is one shard — the
// moral equivalent of the paper's centralized control node, byte-for-byte
// the old single-mutex behavior.
//
// A refused request or admission parks on the refusing shard until an
// event that can change the answer, then asks the scheduler again — it
// re-decides for itself; nothing is handed to it. The wake events are a
// commit, an abort, a granted admission (it dirties CHAIN's W and
// K-WTPG's E(q) cache), a node crash and a watchdog doom. A granted lock
// request changes the inputs too but wakes nobody; instead, when the last
// running transaction of a shard parks, everything refused before the
// shard's current decision generation is re-dispatched once (waitLocked).
// Together these are complete: no wait needs a timer to make progress.
// The paper's fixed-delay resubmission (§3.2, WithRetryDelay) remains for
// policy-Delayed requests alone, as a re-timing. All
// the guarantees of the scheduler carry over:
// conflicting holders never coexist and schedules are conflict
// serializable (every scheduler is strict — locks are held to commit —
// and each partition's locks are managed by exactly one shard).
// Admitted transactions are normally never aborted by the controller;
// the two exceptions are explicit robustness features — a panic in
// caller work is recovered into an abort, and the optional no-progress
// watchdog (WithWatchdog) force-aborts a blocked transaction after two
// silent deadlines (see docs/ROBUSTNESS.md).
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/durable"
	"batsched/internal/event"
	"batsched/internal/fault"
	"batsched/internal/idmap"
	"batsched/internal/machine"
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
// hour). It is also the unit of injected fault latency: a slow partition
// and an injected admission refusal each cost multiples of it.
// Non-positive values keep the default.
func WithRetryDelay(d time.Duration) Option {
	return func(c *Controller) {
		if d > 0 {
			c.retryDelay = d
		}
	}
}

// WithWatchdog enables the no-progress watchdog: a background goroutine
// that checks every d whether any scheduler progress (admission, grant,
// object completion, commit or abort) happened since the last check
// while transactions were waiting. The first silent deadline counts the
// stall episode and emits one Stall event (Op "report") whose Detail says
// who waits for whom: per parked transaction its step, partition, the
// decision that refused it and the partition's current holders. Waits are
// event-complete, so there is nothing to re-broadcast. Every further
// consecutive silent deadline force-aborts the youngest blocked
// transaction (Stall event with Op "abort"): its Acquire returns
// ErrWatchdogAborted and its locks are released through the scheduler's
// abort-recovery path, unblocking the rest. Non-positive d disables the
// watchdog.
func WithWatchdog(d time.Duration) Option {
	return func(c *Controller) {
		if d > 0 {
			c.watchdog = d
		}
	}
}

// WithFaults attaches a fault injector (see internal/fault): selected
// transactions abort after a threshold of reported progress or crash
// (panic) at a chosen step, selected partitions pay a slow-I/O delay on
// every acquired step, and selected admissions are refused before the
// scheduler sees them. Faults exercise exactly the public recovery
// machinery — Abort, panic recovery, retries — so a faulted controller
// must stay correct; the chaos tests assert it. A nil injector is
// ignored.
func WithFaults(in *fault.Injector) Option {
	return func(c *Controller) {
		if in.Enabled() {
			c.inj = in
		}
	}
}

// WithTopology declares the shared-nothing layout behind the lock
// manager: numNodes data nodes holding numParts partitions under the
// paper's home policy (node = partition mod numNodes). The controller
// itself schedules locks, not I/O, so the topology matters only for
// node-crash recovery: CrashNode needs it to know which partitions die
// with a node and where they re-home. Non-positive values disable it.
func WithTopology(numNodes, numParts int) Option {
	return func(c *Controller) {
		if numNodes > 0 && numParts > 0 {
			c.topo = machine.Config{NumNodes: numNodes, NumParts: numParts}
		}
	}
}

// WithObserver attaches a structured trace observer: the controller
// emits timeline events (Admit, Request, ObjectDone, Commit) and wraps
// each shard's scheduler with sched.Observed so every decision, WTPG
// edge resolution and critical-path change is reported too, tagged with
// the emitting shard (Event.Shard). With more than one shard, events
// from different shards are emitted concurrently — observers must be
// safe for concurrent use; the obs sinks (Ring, JSONL, Metrics) all
// qualify. Within one shard, event order still matches decision order.
func WithObserver(o obs.Observer) Option {
	return func(c *Controller) { c.observer = o }
}

// Stats is a consistent snapshot of the controller's lifetime counters,
// summed over all shards.
type Stats struct {
	// Admitted counts granted admissions; Committed and Aborted split
	// the finished transactions by outcome. An abort is the caller
	// abandoning an admitted transaction (a work error, a cancellation,
	// a recovered panic) — or, with WithWatchdog, the watchdog forcing
	// out a blocked transaction (those are counted here too, and
	// additionally visible as Stall events with Op "abort").
	Admitted  uint64
	Committed uint64
	Aborted   uint64
	// Granted counts granted step locks.
	Granted uint64
	// Retries counts retry waits (refused admissions and requests).
	Retries uint64
	// Stalled counts stall *episodes*: transitions into a no-progress
	// state (a watchdog deadline elapsed with waiters present and no
	// scheduler progress, however many deadlines the episode then
	// spans). Recovered counts episodes that subsequently cleared —
	// progress resumed before the controller closed, whether the
	// watchdog's own abort or an external path (a commit, a
	// node-crash requeue) unblocked it. The two are symmetric: every
	// recovered episode was counted stalled exactly once.
	Stalled   uint64
	Recovered uint64
	// NodeCrashes counts CrashNode calls that killed a node; CrashDoomed
	// counts transactions doomed by one because their partial bulk work
	// died with it (each is also counted in Aborted once it finishes).
	NodeCrashes uint64
	CrashDoomed uint64
	// Active is the number of currently admitted, unfinished
	// transactions at snapshot time.
	Active int
}

// add folds another partial Stats (one shard's counters) into s.
func (s *Stats) add(o Stats) {
	s.Admitted += o.Admitted
	s.Committed += o.Committed
	s.Aborted += o.Aborted
	s.Granted += o.Granted
	s.Retries += o.Retries
	s.Stalled += o.Stalled
	s.Recovered += o.Recovered
	s.NodeCrashes += o.NodeCrashes
	s.CrashDoomed += o.CrashDoomed
}

// Controller is a live lock manager driven by one of the paper's
// schedulers. Create with New; safe for concurrent use.
type Controller struct {
	nshards int
	shards  []*lshard
	label   string
	start   time.Time
	closed  atomic.Bool

	retryDelay time.Duration
	watchdog   time.Duration // 0 = no watchdog
	inj        *fault.Injector
	observer   obs.Observer

	// progress counts scheduler-state changes for the watchdog. It is
	// atomic — every shard bumps it lock-free — so watchdog liveness
	// accounting never funnels the shards through a shared lock.
	progress atomic.Uint64

	// topo/place model the data-node layout: the WithTopology one, else
	// (topo zero) a single node holding every partition — same records,
	// same WAL routing, nothing CrashNode could kill. place is mutated
	// only by CrashNode, which holds every shard lock, and read under at
	// least one shard lock — so per-shard readers always see a consistent
	// placement.
	topo  machine.Config
	place *machine.Placement

	// Durability (WithWALLog, WithStorage — see wal.go, storage.go): wal
	// is the caller's open log (the controller's own, walOwned, only when
	// Recover built it), store the heap files granted steps scan. dur
	// binds both to the write-ahead contract and holds its sticky errors;
	// it is nil with neither attached. No shard lock is held while the
	// log's own mutex is taken: finish appends after releasing them.
	wal      *wal.Log
	walOwned bool
	store    *storage.Store
	dur      *durable.Binding

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
}

// lshard is one shard of the controller's hot path: a slice of the
// partition space (ownership hashing, see shardOf) with its own mutex,
// scheduler instance — lock table, WTPG, admission policy — wait state
// and counters. A transaction's control record (ltxn) lives on
// its *home* shard, the lowest-indexed shard its footprint touches; for
// the single-shard common case that is also the only shard that ever
// schedules it.
type lshard struct {
	idx int
	mu  sync.Mutex
	sch sched.Scheduler
	// holders is the scheduler's lock-table view (nil for NODC), taken
	// before the observability wrapper hides it; the stall report names a
	// contended partition's holders through it.
	holders lockHolders

	// The wait state (see waitLocked). wake is the channel the shard's
	// parked goroutines sleep on: made by the first of them, closed and
	// dropped by the next wake event, so an event nobody waits for costs
	// one nil check. gen is the decision generation: it counts what moves
	// the scheduler's state, caches included, without being a wake event —
	// a request its policy answered, a weight message, a rolled-back
	// spanning attempt — and wakeGen is its value when wake was made, so
	// while the two are equal everyone parked on wake was refused by the
	// state the scheduler is still in. active counts the admitted
	// transactions whose footprint touches the shard, from their admission
	// until the scheduler drops their locks; parked those of them asleep
	// in Acquire on wake (a wake event counts them running again at once,
	// before they have re-locked). admits holds the refused admissions
	// parked here and what refused them.
	wake    chan struct{}
	gen     uint64
	wakeGen uint64
	active  int
	parked  int
	admits  idmap.Map[sched.Decision]

	// txns holds the control record of every admitted, unfinished
	// transaction homed here (its length drives Stats.Active); free
	// recycles finished records, so steady-state admission allocates
	// nothing. stats holds this shard's partial counters (summed by
	// Controller.Stats).
	txns  idmap.Map[*ltxn]
	free  []*ltxn
	stats Stats
}

// lockHolders is what every lock-table scheduler offers for diagnostics.
type lockHolders interface {
	LockHolders(txn.PartitionID) []txn.ID
}

// ltxn is the control record of one admitted transaction — the live
// counterpart of the paper's control-node entry (§3.1) and of sim's
// txnState. admitGranted creates it, finish removes it, the home shard's
// lock guards it, and every field is there whichever options are set.
type ltxn struct {
	// admitted is the admission time (commit-event response times, the
	// watchdog's youngest-first victim order); mask the footprint's shard
	// set — a spanning mask means every lock was granted at admission.
	admitted event.Time
	mask     uint64

	// wait is set while the transaction is parked in Acquire (a candidate
	// for a watchdog abort, see blocked): the channel it sleeps on, the
	// request it is parked on and the decision that refused it. doom
	// carries the error a watchdog- or crash-aborted transaction finds at
	// its next Acquire loop (or, for a crash, at its Commit).
	wait struct {
		ch   chan struct{}
		step int
		part txn.PartitionID
		dec  sched.Decision
	}
	doom error
	// resubmit is the §3.2 fixed-delay timer of a Delayed wait: made by
	// the record's first, re-armed by every later one and stopped and
	// drained when each ends, so it holds no tick between waits. It
	// outlives the transaction: admitGranted carries it into the recycled
	// record's next life.
	resubmit *time.Timer

	// The node-crash window: the last granted step (−1 before the first
	// grant), the node its partition was homed on at grant time, and the
	// objects reported since the grant. The window of a step extends until
	// the *next* grant — the controller cannot see the caller's work
	// function return, only the next Acquire — so work reported between a
	// step's end and the next grant still counts against the old step's
	// node (documented in docs/ROBUSTNESS.md §8). part also routes the
	// §3.1 weight messages to the shard owning the current step.
	step int
	part txn.PartitionID
	node int
	work float64

	// preds is the predecessor set resolved at admission, read only
	// while a healthy log is attached: the Commit record carries it with
	// the set resolved at commit.
	preds []txn.ID
}

// blocked reports whether the transaction is parked in Acquire.
func (r *ltxn) blocked() bool { return r.wait.ch != nil }

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

// ErrWatchdogAborted is returned from Acquire (and Run) when the
// no-progress watchdog force-aborted the transaction to break a stall.
// The transaction's locks are released; the caller may resubmit it.
var ErrWatchdogAborted = errors.New("live: aborted by no-progress watchdog")

// ErrNodeCrashed is returned from Acquire, Commit or Run when a node
// crash (CrashNode) destroyed the transaction's partial bulk results:
// the objects it reported since its last lock grant lived on the dead
// node, so the transaction cannot commit and aborts instead. The caller
// may resubmit it against the re-homed topology.
var ErrNodeCrashed = errors.New("live: aborted: partial bulk work lost in a node crash")

// New builds a controller around a scheduler factory, e.g.
//
//	ctl := live.New(sched.KWTPGFactory(2), sched.Costs{KeepTime: 100})
//
// The CPU-cost fields of Costs are ignored (decisions take however long
// they take); KeepTime still bounds W/E cache staleness, measured in
// wall-clock milliseconds.
func New(factory sched.Factory, costs sched.Costs, opts ...Option) *Controller {
	c := &Controller{
		nshards:    1,
		start:      time.Now(),
		retryDelay: 20 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.place = machine.NewPlacement(machine.Config{NumNodes: max(c.topo.NumNodes, 1), NumParts: c.topo.NumParts})
	c.shards = make([]*lshard, c.nshards)
	for i := range c.shards {
		sh := &lshard{idx: i}
		s := factory.New(costs)
		if i == 0 {
			c.label = s.Name()
		}
		sh.holders, _ = s.(lockHolders)
		if c.observer != nil {
			s = sched.Observed(s, shardTagged{o: c.observer, shard: i})
		}
		sh.sch = s
		c.shards[i] = sh
	}
	c.dur = durable.New(c.wal, c.store, c.emit, c.now)
	c.dur.Observe(c.observer, c.label)
	if c.watchdog > 0 {
		c.stopWatch = make(chan struct{})
		c.watchWG.Add(1)
		go c.watchdogLoop()
	}
	return c
}

// now maps wall time onto the scheduler's clock (ms since start).
func (c *Controller) now() event.Time {
	return event.Time(time.Since(c.start).Milliseconds())
}

// emit sends one trace event. The obs sinks are safe for concurrent
// use, so no controller lock is needed; shard locks held by callers
// keep per-shard event order aligned with decision order.
func (c *Controller) emit(e obs.Event) {
	if c.observer == nil {
		return
	}
	e.Sched = c.label
	e.WallNS = time.Now().UnixNano()
	c.observer.Observe(e)
}

// emitShard sends one trace event tagged with the emitting shard.
func (c *Controller) emitShard(shard int, e obs.Event) {
	e.Shard = shard
	c.emit(e)
}

// Stats returns a consistent snapshot of the lifetime counters: all
// shard locks are held while the partials are summed.
func (c *Controller) Stats() Stats {
	c.lockAll()
	defer c.unlockAll()
	var s Stats
	for _, sh := range c.shards {
		s.add(sh.stats)
		s.Active += sh.txns.Len()
	}
	return s
}

// CheckInvariants runs every shard scheduler's internal consistency
// checks (no conflicting lock holders, acyclic WTPG) under all shard
// locks. The chaos tests call it after every injected fault.
func (c *Controller) CheckInvariants() error {
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		if ci, ok := sh.sch.(interface{ CheckInvariants() error }); ok {
			if err := ci.CheckInvariants(); err != nil {
				if c.nshards > 1 {
					return fmt.Errorf("live: shard %d: %w", sh.idx, err)
				}
				return err
			}
		}
	}
	return nil
}

// Close shuts the controller down; subsequent or blocked operations
// return ErrClosed. The watchdog goroutine, if any, is joined.
func (c *Controller) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.broadcastLocked()
		sh.mu.Unlock()
	}
	if c.stopWatch != nil {
		close(c.stopWatch)
		c.watchWG.Wait()
	}
	if c.walOwned && c.wal != nil {
		c.wal.Close()
	}
}

// changedLocked records that sh's scheduler state moved without waking
// anyone: requests refused before it were decided on inputs that may no
// longer hold. Callers must hold sh.mu.
func (sh *lshard) changedLocked() { sh.gen++ }

// broadcastLocked is a wake event: sh's scheduler state moved in a way
// that can turn a refusal into a grant (a commit, an abort, a granted
// admission), or a parked transaction was doomed, or the controller
// closed. Everything parked on sh re-decides. Callers must hold sh.mu.
func (sh *lshard) broadcastLocked() {
	if sh.wake != nil {
		close(sh.wake)
		sh.wake, sh.parked = nil, 0
	}
}

// unparkLocked ends r's park. A wake event already counted everything on
// the channel it closed as running again; a record that leaves on its own
// (ctx, the §3.2 timer, a concurrent finish) is still counted on the live
// one.
func (sh *lshard) unparkLocked(r *ltxn) {
	if r.wait.ch == sh.wake {
		sh.parked--
	}
	r.wait.ch = nil
}

// bumpProgress records one unit of scheduler progress for the watchdog,
// its only reader: without one the shared counter is never touched.
func (c *Controller) bumpProgress() {
	if c.watchdog > 0 {
		c.progress.Add(1)
	}
}

// waitLocked parks the caller after dec refused it under sh.mu, which
// the caller holds and waitLocked releases. r is the record of an
// admitted transaction homed on sh parked in Acquire (it becomes a
// watchdog-abort candidate), or nil for a refused admission of id. The
// wait is registered and sh.wake captured in the same critical section as
// the refusal, so no wake event between the decision and the sleep is
// missed, and what it sleeps on is events alone: the next wake event on
// sh, or ctx. Two things complete the event set.
//
// Quiescence: a granted request changes what a refusal was decided on but
// wakes nobody (waking on every grant costs more than it finds), and a
// request the policy Delayed may have refreshed the cached plan it was
// answered from. If this park leaves no admitted transaction of sh
// running, nothing is left to produce a wake event, so whoever was
// refused before the current generation is re-dispatched now, once.
// Progress never waits for a timer.
//
// The paper's fixed-delay resubmission (§3.2): a Delayed request — refused
// by policy, not by a held lock — also wakes after the retry delay, on its
// record's resubmit timer. Its inputs move with every grant and weight
// message anywhere, so it is re-timed rather than left to the next
// commit; nothing depends on it.
//
// This is the one place a record pointer outlives a critical section,
// which is why finish never recycles a blocked record.
func (c *Controller) waitLocked(ctx context.Context, sh *lshard, id txn.ID, r *ltxn, dec sched.Decision) error {
	sh.stats.Retries++
	running := sh.active - sh.parked
	if r != nil {
		running-- // this one is about to park
	}
	if running == 0 && sh.wake != nil && sh.wakeGen != sh.gen {
		sh.broadcastLocked()
	}
	if sh.wake == nil {
		sh.wake, sh.wakeGen = make(chan struct{}), sh.gen
	}
	ch := sh.wake
	if r != nil {
		r.wait.ch, r.wait.dec = ch, dec
		sh.parked++
	} else {
		sh.admits.Put(id, dec)
	}
	sh.mu.Unlock()
	var resubmit <-chan time.Time // nil, never ready, unless Delayed
	if r != nil && dec == sched.Delayed {
		if r.resubmit == nil {
			r.resubmit = time.NewTimer(c.retryDelay)
		} else {
			r.resubmit.Reset(c.retryDelay)
		}
		resubmit = r.resubmit.C
	}
	var err error
	select {
	case <-ch:
	case <-resubmit:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if resubmit != nil && !r.resubmit.Stop() {
		// It fired: drain a tick this wait did not take, or the next
		// wait's Reset would find it at once (pre-Go 1.23 timer channels).
		select {
		case <-r.resubmit.C:
		default:
		}
	}
	sh.mu.Lock()
	if r == nil {
		sh.admits.Delete(id)
	} else if r.blocked() { // else a concurrent finish already unparked it
		sh.unparkLocked(r)
	}
	sh.mu.Unlock()
	return err
}

// pause sleeps d of injected fault latency, or until ctx ends.
func pause(ctx context.Context, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// admitGranted is Admit's tail once the scheduler has granted t, homed
// on home, under the held shard locks in mask: count it, create its
// control record — with a log, the resolved predecessors, read while the
// predecessor set is still atomic with the grant — then release the
// locks.
func (c *Controller) admitGranted(home *lshard, mask uint64, now event.Time, t *txn.T) {
	home.stats.Admitted++
	var r *ltxn
	if n := len(home.free); n > 0 {
		r, home.free = home.free[n-1], home.free[:n-1]
	} else {
		r = new(ltxn)
	}
	*r = ltxn{admitted: now, mask: mask, step: -1, resubmit: r.resubmit}
	home.txns.Put(t.ID, r)
	c.bumpProgress()
	if c.dur.Logs() {
		r.preds = c.predecessorsLocked(mask, t.ID)
	}
	// A granted admission is a wake event: it dirties the scheduler's
	// cached plan (CHAIN's W, K-WTPG's E(q)), so a request Delayed under
	// the old one may be grantable under the next.
	c.eachShard(mask, func(sh *lshard) {
		sh.active++
		sh.broadcastLocked()
	})
	c.unlockMask(mask)
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
// caller's to undo) and the error is returned. Context cancellation and
// a watchdog abort behave the same way. A panic in the work callback is
// recovered: the transaction aborts (locks released, other transactions
// unaffected) and Run returns the panic as an error.
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
	abortAt, hasAbort := c.inj.AbortAt(t)
	crashStep, hasCrash := c.inj.Crash(t)
	processed := 0.0
	progress := func(objects float64) {
		processed += objects
		c.ObjectDone(t, objects)
	}
	for step := range t.Steps {
		if err := c.Acquire(ctx, t, step); err != nil {
			c.Abort(t)
			return err
		}
		c.slowIO(ctx, t, step)
		if err := c.storeStep(t, step); err != nil {
			c.Abort(t)
			return err
		}
		if hasCrash && step == crashStep {
			c.emit(obs.Event{Kind: obs.KindFault, At: c.now(), Txn: t.ID, Step: step, Op: "crash"})
			panic(fmt.Errorf("%w: txn %v step %d", fault.ErrInjectedCrash, t.ID, step))
		}
		if work != nil {
			if err := work(step, progress); err != nil {
				c.Abort(t)
				return fmt.Errorf("live: %v step %d: %w", t.ID, step, err)
			}
		}
		if hasAbort && processed >= abortAt {
			c.emit(obs.Event{Kind: obs.KindFault, At: c.now(), Txn: t.ID, Step: step, Op: "abort"})
			c.Abort(t)
			return fmt.Errorf("%w: txn %v after %g objects", fault.ErrInjectedAbort, t.ID, processed)
		}
	}
	// Commit can itself refuse: a node crash after the last grant dooms
	// the transaction and the "commit" aborts it (ErrNodeCrashed).
	return c.Commit(t)
}

// slowIO pays the injected slow-partition delay for the acquired step,
// if any: (factor−1)·retryDelay of extra latency, context-aware.
func (c *Controller) slowIO(ctx context.Context, t *txn.T, step int) {
	f := c.inj.IOFactor(t.Steps[step].Part)
	if f <= 1 {
		return
	}
	c.emit(obs.Event{Kind: obs.KindFault, At: c.now(), Txn: t.ID, Step: step, Part: t.Steps[step].Part, Op: "slow-io"})
	pause(ctx, time.Duration(float64(c.retryDelay)*(f-1)))
}

// Admit blocks until the scheduler admits t (or ctx ends, or the
// controller closes). After a successful Admit the caller owns the
// transaction's lifecycle and must finish it with Commit or Abort.
// Most callers want Run instead.
//
// One loop serves every footprint: take its shard locks in canonical
// order, ask, and on a refusal release them, wait for the refusing
// shard's next wake event (waitLocked) and ask again. A single-shard
// footprint asks the scheduler's Admit and requests its locks step by
// step (Acquire); a footprint spanning shards acquires all of its locks
// atomically here (see admitProjectedLocked). An injected refusal has no
// event to wait for: it costs one retry delay of fault latency, like
// slowIO, and asks again.
func (c *Controller) Admit(ctx context.Context, t *txn.T) error {
	if t == nil {
		return errNilTxn
	}
	mask := c.shardMask(t)
	home := c.shards[homeShard(mask)]
	var projs []projection // spanning only; stable across attempts
	if spanning(mask) {
		projs = c.project(t, mask)
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.lockMask(mask)
		if c.closed.Load() {
			c.unlockMask(mask)
			return ErrClosed
		}
		now := c.now()
		if attempt == 0 {
			c.emitShard(home.idx, obs.Event{Kind: obs.KindAdmit, At: now, Txn: t.ID})
		}
		if c.inj.RefuseAdmit(t.ID, attempt) {
			c.emitShard(home.idx, obs.Event{Kind: obs.KindFault, At: now, Txn: t.ID, Op: "refuse-admit"})
			home.stats.Retries++
			c.unlockMask(mask)
			pause(ctx, c.retryDelay)
			continue
		}
		if err := c.dur.LogErr(); err != nil {
			// Durability was requested and is broken (an IO failure):
			// admitting would run the transaction unlogged.
			c.unlockMask(mask)
			return fmt.Errorf("live: wal: %w", err)
		}
		refused, dec := home, sched.Granted // the shard whose next wake event the retry waits for
		if projs != nil {
			refused, dec = c.admitProjectedLocked(projs, now)
		} else {
			dec = home.sch.Admit(t, now).Decision
		}
		if dec == sched.Granted {
			c.admitGranted(home, mask, now, t)
			return nil
		}
		c.unlockMask(mask &^ (1 << uint(refused.idx)))
		if err := c.waitLocked(ctx, refused, t.ID, nil, dec); err != nil {
			return err
		}
	}
}

// Acquire blocks until the lock needed by step of t is granted (or ctx
// ends, the controller closes, or the watchdog force-aborts t — then
// ErrWatchdogAborted). Valid only between Admit and Commit/Abort: on a
// transaction the controller does not consider admitted, a nil one or a
// step t does not declare it returns an error at once. For a spanning transaction every lock was already
// granted at admission, so Acquire only performs the per-step
// bookkeeping and never blocks.
func (c *Controller) Acquire(ctx context.Context, t *txn.T, step int) error {
	if t == nil {
		return errNilTxn
	}
	if step < 0 || step >= len(t.Steps) {
		return fmt.Errorf("live: %v has no step %d", t.ID, step)
	}
	home := c.shards[homeShard(c.shardMask(t))]
	part := t.Steps[step].Part
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		home.mu.Lock()
		if c.closed.Load() {
			home.mu.Unlock()
			return ErrClosed
		}
		r, _ := home.txns.Get(t.ID)
		if r == nil {
			home.mu.Unlock()
			return errNotAdmitted(t.ID)
		}
		if err := r.doom; err != nil {
			r.doom = nil
			home.mu.Unlock()
			return err
		}
		now := c.now()
		if attempt == 0 {
			c.emitShard(c.shardOf(part), obs.Event{Kind: obs.KindRequest, At: now, Txn: t.ID, Step: step, Part: part,
				Write: t.Steps[step].Mode == txn.Write})
		}
		// A spanning transaction's locks were all granted at admission, so
		// only the bookkeeping remains: count the grant and move the
		// node-crash window to this step.
		dec := sched.Granted
		if !spanning(r.mask) {
			dec = home.sch.Request(t, step, now).Decision
			if dec != sched.Blocked {
				// The policy ran: a grant moved the graph, and even a Delayed
				// answer may have come from a cached plan (W, E(q)) the call
				// itself refreshed because KeepTime had passed.
				home.changedLocked()
			}
		}
		if dec == sched.Granted {
			home.stats.Granted++
			c.bumpProgress()
			r.step, r.part, r.node, r.work = step, part, c.place.NodeOf(part), 0
			home.mu.Unlock()
			return nil
		}
		// Blocked or Delayed: park until the shard's state moves (waitLocked)
		// and let the scheduler re-decide.
		r.wait.step, r.wait.part = step, part
		if err := c.waitLocked(ctx, home, t.ID, r, dec); err != nil {
			return err
		}
	}
}

// ObjectDone reports completed work for an admitted transaction — the
// §3.1 weight-adjustment message behind the Progress callback. The
// weight adjustment lands on the shard owning the partition of the
// transaction's current step (for a spanning transaction, that shard's
// WTPG holds the corresponding projected declaration). On a nil
// transaction, or one the controller does not consider admitted, it does
// nothing.
func (c *Controller) ObjectDone(t *txn.T, objects float64) {
	if t == nil {
		return
	}
	home := c.shards[homeShard(c.shardMask(t))]
	home.mu.Lock()
	defer home.mu.Unlock()
	r, _ := home.txns.Get(t.ID)
	if r == nil {
		return
	}
	var now event.Time // only an observer reads it; no scheduler does
	if c.observer != nil {
		now = c.now()
	}
	r.work += objects
	target := home
	if r.step >= 0 {
		target = c.shards[c.shardOf(r.part)]
	}
	if target == home {
		home.sch.ObjectDone(t, objects, now)
		home.changedLocked()
	} else {
		// target.idx > home.idx always: home is the lowest shard of the
		// footprint, so this nesting respects the canonical lock order.
		target.mu.Lock()
		target.sch.ObjectDone(t, objects, now)
		target.changedLocked()
		target.mu.Unlock()
	}
	c.bumpProgress()
	c.emitShard(target.idx, obs.Event{Kind: obs.KindObjectDone, At: now, Txn: t.ID, Objects: objects})
}

// Commit finishes an admitted transaction: all its locks drop and
// waiters wake, and — with a WAL — it returns nil only after a force
// covered its Commit record (the locks drop before that force, see
// finish). It returns an error for a transaction the controller does
// not consider admitted (double finish, never admitted) — and, wrapped
// as ErrNodeCrashed, for a transaction doomed by a node crash after its
// last lock grant: its partial bulk results are gone, so the "commit"
// runs the abort-recovery path instead and the caller must treat the
// transaction as aborted. An error naming a record that is "not durable"
// is the one in-doubt outcome: the transaction pre-committed, the force
// failed, and only a restart's replay decides.
func (c *Controller) Commit(t *txn.T) error {
	return c.finish(t, true)
}

// Abort abandons an admitted transaction (work error, cancellation,
// recovered panic, watchdog): its locks are released through the
// scheduler's abort-recovery path — unresolved conflicting-edges
// retracted, resolved precedence spliced past it — and waiters wake.
// Undoing completed work is the caller's responsibility. It returns an
// error only for a transaction the controller does not consider
// admitted.
func (c *Controller) Abort(t *txn.T) error {
	return c.finish(t, false)
}

// finish is a pre-commit in the sense of Yao et al.'s dependency logging
// (PAPERS.md): the partition locks drop once the Commit record is
// appended, and the caller is acknowledged once it is durable. What each
// step guarantees is internal/durable's contract; the order, for a
// commit:
//
//  1. under the footprint's shard locks, claim the finish — validate,
//     apply the doom check, add the predecessor set resolved now, while
//     t is still in the WTPG(s), to the one read at admission, and drop
//     t's control record so no concurrent finish/crash-doom can touch it;
//  2. outside the shard mutexes, but with t still holding its partition
//     locks in the scheduler(s): PreCommit — append the record, apply the
//     staged effects to cached pages; a successor's scan sees them. Nothing
//     of t is visible yet, so a refusal still flips cleanly to an abort;
//  3. under each shard's lock in canonical order, apply the completion to
//     that shard's scheduler — the partition locks drop here — and wake
//     its waiters;
//  4. Force, and return nil only after it returns.
//
// A crash in the window between 3 and 4 can lose a pre-committed record
// while a later one survives in another node file; recovery keeps only
// the gap-free prefix of the append order, so that successor is lost with
// it. An abort replaces step 2 with Abandon and skips step 4.
func (c *Controller) finish(t *txn.T, committed bool) error {
	if t == nil {
		return errNilTxn
	}
	mask := c.shardMask(t)
	home := c.shards[homeShard(mask)]

	c.lockMask(mask)
	r, _ := home.txns.Get(t.ID)
	if r == nil {
		c.unlockMask(mask)
		return errNotAdmitted(t.ID)
	}
	now := c.now()
	var doomErr error
	if committed && r.doom != nil {
		// Doomed after its last Acquire (node crash): committing would
		// publish bulk results that died with the node. Abort instead.
		committed = false
		doomErr = fmt.Errorf("live: %v: %w", t.ID, r.doom)
	}
	start, preds, node := r.admitted, r.preds, 0
	if committed && c.dur.Logs() {
		preds = append(preds, c.predecessorsLocked(mask, t.ID)...)
		if len(t.Steps) > 0 {
			node = c.place.NodeOf(t.Steps[0].Part) // CrashNode re-homes under every shard lock
		}
	}
	home.txns.Delete(t.ID)
	if r.blocked() { // a parked Acquire still holds r (see waitLocked)
		home.unparkLocked(r)
	} else {
		home.free = append(home.free, r)
	}
	c.unlockMask(mask)

	if !committed {
		c.dur.Abandon(t.ID)
	} else if err := c.dur.PreCommit(t, node, preds, now); err != nil {
		committed = false
		doomErr = fmt.Errorf("live: %v: %w", t.ID, err)
	}

	if c.observer != nil {
		// Only the trace reads the completion time (the WAL sync event is
		// a trace event too); no scheduler's Commit or Abort does.
		now = c.now()
	}
	c.eachShard(mask, func(sh *lshard) {
		sh.mu.Lock()
		if committed {
			sh.sch.Commit(t, now)
		} else {
			sh.sch.Abort(t, now)
		}
		sh.active--
		if sh == home {
			if committed {
				sh.stats.Committed++
			} else {
				sh.stats.Aborted++
			}
			e := obs.Event{Kind: obs.KindCommit, At: now, Txn: t.ID, RT: now - start}
			if !committed {
				e.Decision = "aborted"
			}
			c.emitShard(sh.idx, e)
		}
		sh.broadcastLocked()
		sh.mu.Unlock()
	})
	c.bumpProgress()

	if committed {
		if err := c.dur.Force(now); err != nil {
			// Pre-committed but not durable: successors may have read the
			// effects. The binding's sticky errors fail every later
			// admission, commit and page write; only a restart's replay
			// decides this one.
			return fmt.Errorf("live: %v: commit record not durable: %w", t.ID, err)
		}
	}
	return doomErr
}

// CrashNode kills one data node of the WithTopology layout: its
// partitions re-home to the survivors (mod-alive policy, Rehome events)
// and every admitted transaction whose last granted step lived there is
// triaged by the recoverability rule — no objects reported since the
// grant means nothing was lost (the transaction continues against the
// re-homed partition; a Requeue event records it), while reported
// objects mean partial bulk results died with the node, so the
// transaction is doomed: its next Acquire (or its Commit) returns
// ErrNodeCrashed and it aborts through the scheduler's recovery path.
// The triage runs under every shard lock — the crash window and the doom
// live in each transaction's record on its home shard — so it is atomic
// against all shards.
// Errors: no WithTopology, an unknown/already-dead node, or the last
// alive node.
func (c *Controller) CrashNode(node int) error {
	c.lockAll()
	defer c.unlockAll()
	if c.closed.Load() {
		return ErrClosed
	}
	if c.topo.NumNodes == 0 {
		return fmt.Errorf("live: CrashNode requires WithTopology")
	}
	if !c.place.Alive(node) {
		return fmt.Errorf("live: node %d is unknown or already dead", node)
	}
	if c.place.AliveCount() <= 1 {
		return fmt.Errorf("live: refusing to crash the last alive node %d", node)
	}
	now := c.now()
	c.shards[0].stats.NodeCrashes++
	c.emit(obs.Event{Kind: obs.KindNodeDown, At: now, Node: node})
	for _, rh := range c.place.Kill(node) {
		c.emit(obs.Event{Kind: obs.KindRehome, At: now, Part: rh.Part, FromNode: rh.From, Node: rh.To})
	}
	for _, sh := range c.shards {
		sh.txns.Range(func(id txn.ID, r *ltxn) bool {
			if r.step < 0 || r.node != node {
				return true
			}
			if r.work > 0 {
				r.doom = ErrNodeCrashed
				c.shards[0].stats.CrashDoomed++
				c.emitShard(sh.idx, obs.Event{Kind: obs.KindFault, At: now, Txn: id, Step: r.step, Part: r.part, Op: "node-crash"})
				return true
			}
			to := c.place.NodeOf(r.part)
			r.node = to
			c.emitShard(sh.idx, obs.Event{Kind: obs.KindRequeue, At: now, Txn: id, Step: r.step, Part: r.part, FromNode: node, Node: to})
			return true
		})
	}
	// The triage itself is scheduler progress: parked waiters re-check
	// their doom on wake, and a stall the crash caused (or cured) must be
	// visible to the watchdog as movement, keeping Stalled/Recovered
	// symmetric when the requeue path — not the watchdog — unblocks a run.
	c.bumpProgress()
	for _, sh := range c.shards {
		sh.broadcastLocked()
	}
	return nil
}

// watchdogLoop is the no-progress watchdog (WithWatchdog): every period
// it compares the progress counter against the previous tick. A silent
// period with transactions admitted or waiting is a stall — first the
// report, then an abort per further silent period. The progress read is
// lock-free; only a silent deadline pays for the shard locks (the report
// and the victim selection must be atomic against every shard so a
// transaction that just unblocked is never doomed).
func (c *Controller) watchdogLoop() {
	defer c.watchWG.Done()
	ticker := time.NewTicker(c.watchdog)
	defer ticker.Stop()
	var lastProgress uint64
	stalled := false
	for {
		select {
		case <-c.stopWatch:
			return
		case <-ticker.C:
		}
		if c.closed.Load() {
			return
		}
		if p := c.progress.Load(); p != lastProgress {
			lastProgress = p
			if stalled {
				stalled = false
				sh := c.shards[0]
				sh.mu.Lock()
				sh.stats.Recovered++
				sh.mu.Unlock()
			}
			continue
		}
		c.lockAll()
		if c.closed.Load() {
			c.unlockAll()
			return
		}
		if p := c.progress.Load(); p != lastProgress {
			// Progress raced the lock acquisition; treat as a live tick.
			c.unlockAll()
			continue
		}
		active, admits := 0, 0
		for _, sh := range c.shards {
			active += sh.txns.Len()
			admits += sh.admits.Len()
		}
		if active == 0 && admits == 0 {
			// Idle, not stalled: nothing is waiting for progress.
			c.unlockAll()
			continue
		}
		if !stalled {
			// First silent deadline. Count the *episode*, not every silent
			// deadline it spans — Stats.Recovered counts episodes that clear,
			// and the pair must stay symmetric however long the stall lasts
			// and whoever cures it (a watchdog abort or an external requeue)
			// — and say who waits for whom. Waits are event-complete, so
			// there is no lost wake-up to cure: the report is for whoever
			// reads the trace.
			stalled = true
			c.shards[0].stats.Stalled++
			if c.observer != nil {
				c.emit(obs.Event{Kind: obs.KindStall, At: c.now(), Op: "report", Detail: c.stallReportLocked()})
			}
		} else if victim, r := c.youngestBlockedLocked(); r != nil {
			// A further silent deadline: force-abort the youngest blocked
			// transaction. Blocked means parked in Acquire — no caller work
			// is running, so releasing its locks is safe; youngest means the
			// least completed work is thrown away.
			r.doom = ErrWatchdogAborted
			c.emitShard(homeShard(r.mask), obs.Event{Kind: obs.KindStall, At: c.now(), Txn: victim, Op: "abort"})
			for _, sh := range c.shards {
				sh.broadcastLocked()
			}
		}
		c.unlockAll()
	}
}

// stallReportLocked renders who waits for whom, one clause per parked
// transaction in id order: a parked request as "T7 step=1 part=P3 blocked
// holders=[T2 T5]" (the decision that refused it and the partition's
// current lock holders), a parked admission as "T9 admit aborted".
// Callers must hold every shard lock.
func (c *Controller) stallReportLocked() string {
	type parked struct {
		id     txn.ID
		clause string
	}
	var ps []parked
	for _, sh := range c.shards {
		sh.txns.Range(func(id txn.ID, r *ltxn) bool {
			if !r.blocked() {
				return true
			}
			var holders []txn.ID
			if own := c.shards[c.shardOf(r.wait.part)]; own.holders != nil {
				holders = own.holders.LockHolders(r.wait.part)
			}
			ps = append(ps, parked{id, fmt.Sprintf("%v step=%d part=%v %v holders=%v", id, r.wait.step, r.wait.part, r.wait.dec, holders)})
			return true
		})
		sh.admits.Range(func(id txn.ID, dec sched.Decision) bool {
			ps = append(ps, parked{id, fmt.Sprintf("%v admit %v", id, dec)})
			return true
		})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(p.clause)
	}
	return b.String()
}

// youngestBlockedLocked picks the blocked transaction with the latest
// admission time across all shards (ties broken by higher ID for
// determinism) and returns its ID and record, nil when nothing is
// blocked. Callers must hold every shard lock.
func (c *Controller) youngestBlockedLocked() (best txn.ID, bestR *ltxn) {
	for _, sh := range c.shards {
		sh.txns.Range(func(id txn.ID, r *ltxn) bool {
			if !r.blocked() || r.doom != nil {
				return true // not parked, or already sentenced: give it a tick to act
			}
			if bestR == nil || r.admitted > bestR.admitted || (r.admitted == bestR.admitted && id > best) {
				best, bestR = id, r
			}
			return true
		})
	}
	return best, bestR
}

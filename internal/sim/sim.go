// Package sim runs the paper's simulation model (§4.1, Figure 5): a
// Poisson stream of BATs arrives at the centralized control node, the
// configured scheduler decides admissions and lock grants, granted steps
// execute at the data-processing node holding their partition, and the
// run reports mean response time, throughput, and utilization — the
// metrics of Figures 6–10.
//
// The simulation is a deterministic function of (Config, Seed): all
// randomness flows through a single seeded source and all simultaneous
// events fire in scheduling order.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/fault"
	"batsched/internal/machine"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/stats"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// Option configures one Run beyond the positional Config — the pattern
// for new knobs (DESIGN.md §9), keeping Config stable for callers that
// build it as a literal.
type Option func(*runOpts)

type runOpts struct {
	observer obs.Observer
	inj      *fault.Injector
}

// WithTrace attaches a structured trace observer to the run: the
// simulator emits timeline events (Admit, Request, ObjectDone, Commit)
// and wraps the scheduler with sched.Observed so every decision, edge
// resolution and critical-path change is reported too. A nil observer
// is ignored; without one the run pays nothing.
func WithTrace(o obs.Observer) Option {
	return func(rc *runOpts) { rc.observer = o }
}

// WithFaults attaches a fault injector: selected transactions abort
// after a deterministic amount of bulk processing, exercising the
// schedulers' abort-recovery path (wtpg.Splice, and for CHAIN a plan
// recomputed over the smaller chain).
// Every injected abort is followed by a scheduler invariant check
// regardless of Config.SelfCheck. A nil injector is ignored; fault
// decisions are pure functions of the injector's seed, so the same
// (Config, Seed, fault seed) triple replays the same faulted run.
func WithFaults(in *fault.Injector) Option {
	return func(rc *runOpts) { rc.inj = in }
}

// Config describes one simulation run.
type Config struct {
	Machine   machine.Config
	Scheduler sched.Factory
	Workload  workload.Generator
	// ArrivalRate is λ in transactions per second (Poisson arrivals).
	ArrivalRate float64
	// Horizon is the simulated duration (paper: 2,000,000 clocks = ms).
	Horizon event.Time
	// Warmup excludes transactions arriving before it from the metrics.
	Warmup event.Time
	// Seed drives all randomness.
	Seed int64
	// MaxTxns optionally caps generated arrivals (0 = unlimited).
	MaxTxns int
	// ArrivalTimes, if non-empty, replaces the Poisson process with an
	// explicit arrival schedule (one transaction per entry, in order).
	// Used for reproducible scenarios and integration tests.
	ArrivalTimes []event.Time
	// CheckSerializability verifies the executed schedule at the end.
	// Must be false for NODC, which ignores conflicts by design.
	CheckSerializability bool
	// SelfCheck runs the schedulers' internal invariant checks (no
	// conflicting lock holders) after every commit. For tests and
	// debugging; slows large runs down.
	SelfCheck bool
	// SampleEvery, if positive, records a time-series sample of system
	// state every SampleEvery clocks (live transactions, control-node
	// queue, busy data nodes) — the raw material for watching DC
	// thrashing build up.
	SampleEvery event.Time
	// Classify, if set, assigns each transaction a class label; the
	// result then carries per-class response times and completion counts
	// (used by the mixed-workload experiments).
	Classify func(*txn.T) string
	// Declustered switches the file placement from the paper's default
	// (node = partition mod NumNodes) to full declustering: every
	// partition is spread over all nodes, so one bulk step executes as
	// NumNodes parallel sub-jobs. This is the intra-transaction
	// parallelism alternative the paper discusses in §4.3 — it benefits
	// BATs but, on a real machine, costs short transactions message
	// overhead that this simulator does not model.
	Declustered bool
}

// Result reports one run's metrics.
type Result struct {
	Scheduler   string
	Workload    string
	ArrivalRate float64
	Horizon     event.Time

	Arrived         int
	Admitted        int
	Completed       int
	Measured        int // completions counted in the metrics window
	AdmissionDelays int // ASL start refusals and similar
	AdmissionAborts int // chain-form / K-conflict rejections
	RequestDelays   int
	RequestBlocks   int

	// MeanRT / StdRT are response times in seconds over measured
	// completions (creation to completion, §4.1); P95RT, P99RT and MaxRT
	// report the tail.
	MeanRT float64
	StdRT  float64
	P95RT  float64
	P99RT  float64
	MaxRT  float64
	// Throughput is completed transactions per second in the window.
	Throughput float64

	// CNUtilization is control-node busy fraction; NodeUtilization is
	// per-DN busy fraction; MeanNodeUtil averages the DNs.
	CNUtilization   float64
	NodeUtilization []float64
	MeanNodeUtil    float64

	// MaxLive is the peak number of concurrently admitted transactions.
	MaxLive int
	// LastCompletion is the commit time of the last completed
	// transaction — the batch makespan when a fixed batch is released
	// via ArrivalTimes.
	LastCompletion event.Time
	// LiveAtEnd counts transactions still admitted-but-uncommitted at the
	// horizon. Arrived = Completed + InjectedAborts + LiveAtEnd + (not
	// yet admitted).
	LiveAtEnd int

	// InjectedAborts counts transactions killed mid-run by the fault
	// injector (WithFaults); they release their locks through the
	// scheduler's abort-recovery path and do not resubmit (the caller
	// abandoned them).
	InjectedAborts int

	// Response-time decomposition over measured completions (seconds):
	// admission wait (arrival to admission), lock wait (request
	// submission to grant, summed over steps), and data-node time (grant
	// to step completion, queueing included).
	MeanAdmitWait float64
	MeanLockWait  float64
	MeanDNTime    float64

	// SerializabilityChecked / SerializabilityOK report the final check.
	SerializabilityChecked bool

	// Per-class metrics (populated when Config.Classify is set): mean
	// response time in seconds and completions per class.
	ClassMeanRT    map[string]float64
	ClassCompleted map[string]int

	// Samples is the periodic time series (when Config.SampleEvery > 0).
	Samples []Sample
}

// Sample is one periodic observation of system state.
type Sample struct {
	At event.Time
	// Live counts admitted-but-uncommitted transactions.
	Live int
	// CNQueue is the number of control requests waiting at the CN.
	CNQueue int
	// BusyNodes counts data nodes with work queued or running.
	BusyNodes int
}

// txnState tracks one transaction through its lifecycle. It owns all its
// attempts need — control jobs, retry handlers, data-node jobs — so that
// an attempt, refused or granted, allocates nothing.
type txnState struct {
	sim     *simulator
	t       *txn.T
	arrived event.Time
	step    int

	// What the control job in flight decided in Run, for its Done. One
	// set will do: a transaction asks for admission, then for one lock at
	// a time, then commits, and aborts only while a step is executing.
	decision sched.Decision
	freed    []txn.PartitionID // partitions released by commit or abort
	// The §3.2 resubmissions, bound once at arrival.
	retryAdmit, retryRequest event.Handler

	// Response-time decomposition bookkeeping.
	admittedAt  event.Time
	requestedAt event.Time // when the current step's request was first submitted
	grantedAt   event.Time
	lockWait    event.Time // accumulated over steps
	dnTime      event.Time // accumulated over steps
	// outstanding counts sub-jobs of the current step still running at
	// data nodes (only >1 under declustered placement).
	outstanding int

	// Fault-injection bookkeeping (zero without WithFaults): abortAt is
	// the processed-object count at which the transaction dies (0 =
	// never), processed accumulates quanta, and aborting latches once
	// the abort is initiated.
	abortAt   float64
	processed float64
	aborting  bool

	// jobs holds the current step's data-node jobs (an abort cancels
	// them), reused from step to step. It starts out backed by one, all
	// a step needs unless placement is declustered.
	jobs []machine.Job
	one  [1]machine.Job
}

type simulator struct {
	cfg    Config
	q      *event.Queue
	rng    *rand.Rand
	cn     *machine.ControlNode
	nodes  []*machine.DataNode
	sch    sched.Scheduler
	nextID txn.ID

	live    map[txn.ID]*txnState
	waiting map[txn.PartitionID][]*txnState

	res       Result
	rt        stats.Welford
	admitWait stats.Welford
	lockWait  stats.Welford
	dnTime    stats.Welford
	classRT   map[string]*stats.Welford
	rts       []float64
	checker   *modelcheck.History // nil unless Config.CheckSerializability
	obs       obs.Observer        // nil = no structured trace
	obsLabel  string
	inj       *fault.Injector // nil = no fault injection

	// The two timers that re-arm themselves, bound once.
	nextArrival, nextSample event.Handler

	// err is the first arrival whose demands txn.T.CheckDemands refused.
	// It ends the arrival stream, and Run returns it.
	err error
}

// Run executes one simulation and returns its metrics. It returns an
// error on invalid configuration, on a generated arrival with a demand
// outside [0, txn.MaxDemand] (txn.T.CheckDemands), or on a
// serializability violation.
// Options extend the run without growing Config (e.g. WithTrace).
func Run(cfg Config, opts ...Option) (*Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	if cfg.Scheduler.New == nil {
		return nil, fmt.Errorf("sim: nil scheduler factory")
	}
	if !(cfg.ArrivalRate > 0 && !math.IsInf(cfg.ArrivalRate, 1)) && len(cfg.ArrivalTimes) == 0 {
		// NaN would schedule the first arrival at a garbage time, and +Inf
		// every arrival at t=0 without end.
		return nil, fmt.Errorf("sim: arrival rate %g is not positive and finite, and no explicit arrivals", cfg.ArrivalRate)
	}
	if cfg.Horizon <= 0 || cfg.Horizon > machine.MaxDuration {
		return nil, fmt.Errorf("sim: horizon %v outside (0, machine.MaxDuration]", cfg.Horizon)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Horizon {
		return nil, fmt.Errorf("sim: warmup %v outside horizon %v", cfg.Warmup, cfg.Horizon)
	}
	for _, at := range cfg.ArrivalTimes {
		if at < 0 {
			return nil, fmt.Errorf("sim: explicit arrival at %v, before the run starts", at)
		}
	}

	s := &simulator{
		cfg:     cfg,
		q:       event.NewQueue(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		live:    make(map[txn.ID]*txnState),
		waiting: make(map[txn.PartitionID][]*txnState),
	}
	var rc runOpts
	for _, opt := range opts {
		opt(&rc)
	}
	s.q.SetLane(cfg.Machine.RetryDelay) // §3.2's retries, the bulk of the calendar
	s.classRT = make(map[string]*stats.Welford)
	if rc.inj.Enabled() {
		s.inj = rc.inj
	}
	s.cn = machine.NewControlNode(s.q)
	s.sch = cfg.Scheduler.New(cfg.Machine.Control)
	if rc.observer != nil {
		s.obs = rc.observer
		s.sch = sched.Observed(s.sch, rc.observer)
	}
	s.res.Scheduler = s.sch.Name()
	s.obsLabel = s.res.Scheduler // matches the sched.Observed label
	s.res.Workload = cfg.Workload.Name()
	s.res.ArrivalRate = cfg.ArrivalRate
	s.res.Horizon = cfg.Horizon
	if cfg.CheckSerializability {
		s.checker = modelcheck.NewHistory()
	}
	for i := 0; i < cfg.Machine.NumNodes; i++ {
		n := machine.NewDataNode(i, s.q, cfg.Machine.ObjTime)
		n.OnQuantum = s.onQuantum
		n.OnStepDone = s.onStepDone
		s.nodes = append(s.nodes, n)
	}
	if cfg.SampleEvery > 0 {
		s.nextSample = s.sample
		s.q.After(cfg.SampleEvery, s.nextSample)
	}
	if len(cfg.ArrivalTimes) > 0 {
		for _, at := range cfg.ArrivalTimes {
			if at <= cfg.Horizon {
				s.q.At(at, s.arrive)
			}
		}
	} else {
		s.nextArrival = func(now event.Time) {
			s.arrive(now)
			s.scheduleArrival(now)
		}
		s.scheduleArrival(0)
	}
	s.q.RunUntil(cfg.Horizon)
	if s.err != nil {
		return nil, s.err
	}
	s.finish()
	if s.checker != nil {
		s.res.SerializabilityChecked = true
		if err := s.checker.Certify(modelcheck.Evidence{}); err != nil {
			return &s.res, fmt.Errorf("sim: %w", err)
		}
	}
	return &s.res, nil
}

// sample records one periodic system-state sample and re-arms itself.
func (s *simulator) sample(now event.Time) {
	busy := 0
	for _, n := range s.nodes {
		if n.QueueLen() > 0 {
			busy++
		}
	}
	s.res.Samples = append(s.res.Samples, Sample{
		At:        now,
		Live:      len(s.live),
		CNQueue:   s.cn.QueueLen(),
		BusyNodes: busy,
	})
	if now+s.cfg.SampleEvery <= s.cfg.Horizon {
		s.q.After(s.cfg.SampleEvery, s.nextSample)
	}
}

// scheduleArrival schedules the next Poisson arrival after `from`.
func (s *simulator) scheduleArrival(from event.Time) {
	if s.err != nil || s.cfg.MaxTxns > 0 && s.res.Arrived >= s.cfg.MaxTxns {
		return
	}
	ratePerMS := s.cfg.ArrivalRate / 1000.0
	// The gap is compared with what is left of the horizon while it is
	// still a float: a tiny rate draws gaps (up to +Inf) that no
	// event.Time can hold.
	gap := math.Round(s.rng.ExpFloat64() / ratePerMS)
	if gap > float64(s.cfg.Horizon-from) {
		return
	}
	s.q.At(from+event.Time(gap), s.nextArrival)
}

// arrive submits the workload's next transaction for admission, or
// records why its demands are refused.
func (s *simulator) arrive(now event.Time) {
	if s.err != nil {
		return
	}
	s.res.Arrived++
	s.nextID++
	t := s.cfg.Workload.Next(s.nextID, s.rng)
	if err := t.CheckDemands(); err != nil {
		s.err = fmt.Errorf("sim: arrival %d at %v: %w", s.res.Arrived, now, err)
		return
	}
	st := &txnState{sim: s, t: t, arrived: now}
	st.retryAdmit = func(event.Time) { s.submitAdmit(st) }
	st.retryRequest = func(event.Time) { s.submitRequest(st) }
	st.jobs = st.one[:0]
	s.emitObs(obs.Event{Kind: obs.KindAdmit, At: now, Txn: st.t.ID})
	s.submitAdmit(st)
}

// submitAdmit asks the scheduler to admit st's transaction.
func (s *simulator) submitAdmit(st *txnState) {
	s.cn.Submit((*admitJob)(st))
}

// The control jobs of one transaction are the txnState itself under one
// method set each: submitting one converts a pointer.
type (
	admitJob   txnState
	requestJob txnState
	commitJob  txnState
	abortJob   txnState
)

func (j *admitJob) Run(now event.Time) event.Time {
	st := (*txnState)(j)
	s := st.sim
	out := s.sch.Admit(st.t, now)
	st.decision = out.Decision
	if out.Decision == sched.Granted {
		// Startup coordination is spent only on an actual start.
		return out.CPU + s.cfg.Machine.StartupTime
	}
	return out.CPU
}

func (j *admitJob) Done(now event.Time) {
	st := (*txnState)(j)
	st.sim.handleAdmit(st, st.decision, now)
}

func (s *simulator) handleAdmit(st *txnState, d sched.Decision, now event.Time) {
	switch d {
	case sched.Granted:
		s.res.Admitted++
		s.live[st.t.ID] = st
		if len(s.live) > s.res.MaxLive {
			s.res.MaxLive = len(s.live)
		}
		st.step = 0
		st.admittedAt = now
		if at, ok := s.inj.AbortAt(st.t); ok {
			st.abortAt = at
		}
		s.advance(st, now)
	case sched.Delayed:
		s.res.AdmissionDelays++
		s.retryLater(st.retryAdmit)
	case sched.Aborted:
		s.res.AdmissionAborts++
		s.retryLater(st.retryAdmit)
	default:
		panic(fmt.Sprintf("sim: admit decision %v", d))
	}
}

// emitObs sends one structured trace event (nil observer = one branch).
func (s *simulator) emitObs(e obs.Event) {
	if s.obs == nil {
		return
	}
	e.Sched = s.obsLabel
	s.obs.Observe(e)
}

// advance moves st to its next step or to commitment.
func (s *simulator) advance(st *txnState, now event.Time) {
	if st.step >= len(st.t.Steps) {
		s.cn.Submit((*commitJob)(st)) // two-phase commitment, coordinated at the CN
		return
	}
	st.requestedAt = now
	if s.obs != nil {
		sp := st.t.Steps[st.step]
		s.emitObs(obs.Event{
			Kind:  obs.KindRequest,
			At:    now,
			Txn:   st.t.ID,
			Step:  st.step,
			Part:  sp.Part,
			Write: sp.Mode == txn.Write,
			Queue: len(s.waiting[sp.Part]),
		})
	}
	s.submitRequest(st)
}

// submitRequest asks for the lock of st's current step.
func (s *simulator) submitRequest(st *txnState) { s.cn.Submit((*requestJob)(st)) }

func (j *requestJob) Run(now event.Time) event.Time {
	st := (*txnState)(j)
	out := st.sim.sch.Request(st.t, st.step, now)
	st.decision = out.Decision
	return out.CPU
}

func (j *requestJob) Done(now event.Time) {
	st := (*txnState)(j)
	s := st.sim
	sp := st.t.Steps[st.step]
	switch st.decision {
	case sched.Granted:
		if s.checker != nil {
			s.checker.Grant(st.t.ID, sp.Part, sp.Mode)
		}
		st.lockWait += now - st.requestedAt
		st.grantedAt = now
		s.dispatch(st, sp)
	case sched.Blocked:
		s.res.RequestBlocks++
		s.waiting[sp.Part] = append(s.waiting[sp.Part], st)
	case sched.Delayed:
		s.res.RequestDelays++
		s.retryLater(st.retryRequest)
	default:
		panic(fmt.Sprintf("sim: request decision %v", st.decision))
	}
}

// dispatch sends the granted step to its data node — or, under
// declustered placement, splits it into one sub-job per node that
// complete independently (§4.3's intra-transaction parallelism).
func (s *simulator) dispatch(st *txnState, sp txn.Step) {
	width := 1
	if s.cfg.Declustered {
		width = len(s.nodes)
	}
	home := s.cfg.Machine.NodeOf(sp.Part)
	st.outstanding = width
	if cap(st.jobs) < width {
		st.jobs = make([]machine.Job, width)
	}
	st.jobs = st.jobs[:width]
	for i := range st.jobs {
		st.jobs[i] = machine.Job{Txn: st.t, Step: st.step, Remaining: sp.Cost / float64(width)}
		s.nodes[(home+i)%len(s.nodes)].Enqueue(&st.jobs[i])
	}
}

// retryLater resubmits work after the fixed retry delay (§3.2).
func (s *simulator) retryLater(fn event.Handler) { s.q.After(s.cfg.Machine.RetryDelay, fn) }

// onQuantum relays a processed quantum to the scheduler (the §3.1 weight
// adjustment message; node-side control overhead is ignored per §4.1)
// and, under fault injection, checks whether the transaction has
// reached its scheduled abort point.
func (s *simulator) onQuantum(j *machine.Job, objects float64, now event.Time) {
	s.sch.ObjectDone(j.Txn, objects, now)
	s.emitObs(obs.Event{Kind: obs.KindObjectDone, At: now, Txn: j.Txn.ID, Step: j.Step, Objects: objects})
	if s.inj == nil {
		return
	}
	st, ok := s.live[j.Txn.ID]
	if !ok {
		return
	}
	st.processed += objects
	if st.abortAt > 0 && !st.aborting && st.processed >= st.abortAt {
		s.abortMidRun(st, now)
	}
}

// abortMidRun kills st mid-run at its injected abort point: every
// data-node job of its current step is cancelled — under declustered
// placement the sibling sub-jobs on the other nodes too; an in-flight
// quantum finishes but is not reported — and the control node runs the
// scheduler's abort-recovery path: release locks, retract unresolved
// conflicting-edges, splice resolved precedence past the dead
// transaction. The transaction does not resubmit.
func (s *simulator) abortMidRun(st *txnState, now event.Time) {
	st.aborting = true
	for i := range st.jobs {
		st.jobs[i].Cancelled = true
	}
	s.res.InjectedAborts++
	s.emitObs(obs.Event{Kind: obs.KindFault, At: now, Txn: st.t.ID, Op: "abort"})
	s.cn.Submit((*abortJob)(st))
}

func (j *abortJob) Run(now event.Time) event.Time {
	st := (*txnState)(j)
	freed, cpu := st.sim.sch.Abort(st.t, now)
	st.freed = append(st.freed[:0], freed...) // freed is the lock table's until its next Release
	return st.sim.cfg.Machine.CommitTime + cpu
}

// Done finishes an injected abort once the control node has run the
// recovery: the transaction leaves the live set, the recovered
// scheduler state is invariant-checked (always under fault injection),
// and waiters on the freed partitions are woken.
func (j *abortJob) Done(now event.Time) {
	st := (*txnState)(j)
	s := st.sim
	delete(s.live, st.t.ID)
	s.selfCheck()
	s.wakeWaiters(st.freed)
}

// selfCheck runs the scheduler's invariant checks and verifies the
// WTPG is still acyclic. Invoked after every commit when
// Config.SelfCheck is set, and after every injected abort
// unconditionally.
func (s *simulator) selfCheck() {
	if c, ok := s.sch.(interface{ CheckInvariants() error }); ok {
		if err := c.CheckInvariants(); err != nil {
			panic(err)
		}
	}
	if gh, ok := s.sch.(sched.GraphHolder); ok && gh.Graph() != nil {
		// CriticalPath is cached per graph mutation, so this acyclicity
		// probe is free when nothing changed since the last read.
		if _, err := gh.Graph().CriticalPath(); err != nil {
			panic(err)
		}
	}
}

// onStepDone sends the transaction back to the control node for its next
// lock request or its commitment. Under declustered placement the step
// completes only when every node's sub-job has finished.
func (s *simulator) onStepDone(j *machine.Job, now event.Time) {
	st, ok := s.live[j.Txn.ID]
	if !ok {
		panic(fmt.Sprintf("sim: step completion of unknown %v", j.Txn.ID))
	}
	st.outstanding--
	if st.outstanding > 0 {
		return
	}
	st.dnTime += now - st.grantedAt
	st.step = j.Step + 1
	s.advance(st, now)
}

func (j *commitJob) Run(now event.Time) event.Time {
	st := (*txnState)(j)
	s := st.sim
	freed, cpu := s.sch.Commit(st.t, now)
	st.freed = append(st.freed[:0], freed...) // freed is the lock table's until its next Release
	return s.cfg.Machine.CommitTime + cpu
}

func (j *commitJob) Done(now event.Time) {
	st := (*txnState)(j)
	s := st.sim
	delete(s.live, st.t.ID)
	s.res.Completed++
	if now > s.res.LastCompletion {
		s.res.LastCompletion = now
	}
	s.emitObs(obs.Event{Kind: obs.KindCommit, At: now, Txn: st.t.ID, RT: now - st.arrived})
	if s.checker != nil {
		s.checker.Commit(st.t.ID)
	}
	if s.cfg.SelfCheck {
		s.selfCheck()
	}
	if st.arrived >= s.cfg.Warmup {
		s.res.Measured++
		s.rt.Add((now - st.arrived).Seconds())
		s.rts = append(s.rts, (now - st.arrived).Seconds())
		s.admitWait.Add((st.admittedAt - st.arrived).Seconds())
		s.lockWait.Add(st.lockWait.Seconds())
		s.dnTime.Add(st.dnTime.Seconds())
		if s.cfg.Classify != nil {
			class := s.cfg.Classify(st.t)
			w := s.classRT[class]
			if w == nil {
				w = &stats.Welford{}
				s.classRT[class] = w
			}
			w.Add((now - st.arrived).Seconds())
		}
	}
	s.wakeWaiters(st.freed)
}

// wakeWaiters resubmits requests blocked on the released partitions,
// FIFO. Shared by the commit and abort completion paths.
func (s *simulator) wakeWaiters(freed []txn.PartitionID) {
	for _, p := range freed {
		waiters := s.waiting[p]
		delete(s.waiting, p)
		for _, w := range waiters {
			s.submitRequest(w)
		}
	}
}

// finish computes the end-of-run metrics.
func (s *simulator) finish() {
	s.res.LiveAtEnd = len(s.live)
	s.res.MeanRT = s.rt.Mean()
	s.res.StdRT = s.rt.Std()
	if len(s.rts) > 0 {
		if p, err := stats.Percentile(s.rts, 95); err == nil {
			s.res.P95RT = p
		}
		if p, err := stats.Percentile(s.rts, 99); err == nil {
			s.res.P99RT = p
		}
		max := s.rts[0]
		for _, v := range s.rts {
			if v > max {
				max = v
			}
		}
		s.res.MaxRT = max
	}
	if len(s.classRT) > 0 {
		s.res.ClassMeanRT = make(map[string]float64, len(s.classRT))
		s.res.ClassCompleted = make(map[string]int, len(s.classRT))
		for class, w := range s.classRT {
			s.res.ClassMeanRT[class] = w.Mean()
			s.res.ClassCompleted[class] = int(w.Count())
		}
	}
	s.res.MeanAdmitWait = s.admitWait.Mean()
	s.res.MeanLockWait = s.lockWait.Mean()
	s.res.MeanDNTime = s.dnTime.Mean()
	window := (s.cfg.Horizon - s.cfg.Warmup).Seconds()
	if window > 0 {
		s.res.Throughput = float64(s.res.Measured) / window
	}
	total := float64(s.cfg.Horizon)
	s.res.CNUtilization = float64(s.cn.BusyTime) / total
	var sum float64
	for _, n := range s.nodes {
		u := float64(n.BusyTime) / total
		s.res.NodeUtilization = append(s.res.NodeUtilization, u)
		sum += u
	}
	if len(s.nodes) > 0 {
		s.res.MeanNodeUtil = sum / float64(len(s.nodes))
	}
}

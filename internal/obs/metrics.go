package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicAddFloat folds v into the float64 stored as bits behind addr.
func atomicAddFloat(addr *uint64, v float64) {
	for {
		old := atomic.LoadUint64(addr)
		new := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(addr, old, new) {
			return
		}
	}
}

// atomicMaxFloat raises the float64 stored as bits behind addr to v if
// v is larger. Only valid for non-negative observations (the zero bits
// pattern is 0.0).
func atomicMaxFloat(addr *uint64, v float64) {
	for {
		old := atomic.LoadUint64(addr)
		if v <= math.Float64frombits(old) {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return
		}
	}
}

func loadFloat(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// Histogram is a bucketed histogram over fixed upper bounds (ascending,
// with an implicit +Inf bucket at the end). Add is lock-free (atomic
// per-bucket counters), so concurrent observers — the live controller's
// callers and the simulator's worker goroutines — never contend on a
// histogram lock.
// Readers (Mean, Quantile, …) see a monotone, possibly mid-update view;
// they are exact once the producing run has completed (the same
// ownership rule Metrics documents). Observed values must be ≥ 0.
type Histogram struct {
	bounds  []float64
	counts  []uint64 // atomic
	n       uint64   // atomic
	sumBits uint64   // atomic float64 bits
	maxBits uint64   // atomic float64 bits
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (plus an implicit +Inf overflow bucket).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// decadeBounds is the 1-2-5 series used by the default histograms.
func decadeBounds(lo, hi float64) []float64 {
	var out []float64
	for d := lo; d <= hi; d *= 10 {
		out = append(out, d, 2*d, 5*d)
	}
	return out
}

// Add observes one value.
func (h *Histogram) Add(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddUint64(&h.counts[i], 1)
	atomic.AddUint64(&h.n, 1)
	atomicAddFloat(&h.sumBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.n) }

// Mean returns the exact mean of the observed values.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return loadFloat(&h.sumBits) / float64(n)
}

// Max returns the largest observed value.
func (h *Histogram) Max() float64 { return loadFloat(&h.maxBits) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets: the
// upper bound of the bucket holding the q-th observation (Max for the
// overflow bucket). Coarse by design — it answers "which decade", not
// "which millisecond".
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += atomic.LoadUint64(&h.counts[i])
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.Max()
		}
	}
	return h.Max()
}

// format renders the histogram's headline statistics with a unit.
func (h *Histogram) format(unit string) string {
	if h.Count() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3g p50≤%.3g p95≤%.3g max=%.3g %s",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Max(), unit)
}

// decisionCounts tallies scheduler decisions by outcome. The four
// outcomes every scheduler produces get dedicated atomic slots — the
// hot path of every admit/request decision — and anything else falls
// into a mutex-guarded overflow map (never hit in practice).
type decisionCounts struct {
	granted uint64 // atomic
	blocked uint64
	delayed uint64
	aborted uint64

	mu    sync.Mutex
	other map[string]uint64
}

func (d *decisionCounts) add(k string) {
	switch k {
	case "granted":
		atomic.AddUint64(&d.granted, 1)
	case "blocked":
		atomic.AddUint64(&d.blocked, 1)
	case "delayed":
		atomic.AddUint64(&d.delayed, 1)
	case "aborted":
		atomic.AddUint64(&d.aborted, 1)
	default:
		d.mu.Lock()
		if d.other == nil {
			d.other = make(map[string]uint64)
		}
		d.other[k]++
		d.mu.Unlock()
	}
}

// counts materializes the tallies as the map shape readers expect.
func (d *decisionCounts) counts() map[string]uint64 {
	out := make(map[string]uint64, 4)
	if v := atomic.LoadUint64(&d.granted); v > 0 {
		out["granted"] = v
	}
	if v := atomic.LoadUint64(&d.blocked); v > 0 {
		out["blocked"] = v
	}
	if v := atomic.LoadUint64(&d.delayed); v > 0 {
		out["delayed"] = v
	}
	if v := atomic.LoadUint64(&d.aborted); v > 0 {
		out["aborted"] = v
	}
	d.mu.Lock()
	for k, v := range d.other {
		out[k] += v
	}
	d.mu.Unlock()
	return out
}

// SchedMetrics aggregates one scheduler's events. Every counter is
// updated with atomic operations — Observe takes no per-event lock —
// so the observer never serializes the callers (or worker goroutines)
// it is measuring. Plain field reads are exact once the producing run
// has completed; float-valued aggregates are behind accessor methods
// because Go has no atomic float fields.
type SchedMetrics struct {
	Sched string

	// Submission counters (timeline events); all updated atomically.
	Admits   uint64
	Requests uint64
	Commits  uint64
	Aborts   uint64 // Commit events carrying decision "aborted"

	objectsBits uint64 // processed objects, float64 bits

	// Decision counters by outcome, split by operation.
	admitDec   decisionCounts
	requestDec decisionCounts

	// Control-plane counters.
	Resolves        uint64
	CritPathChanges uint64
	critPathMaxBits uint64

	// Robustness counters: scheduler abort-recovery runs and injected
	// faults.
	Recoveries uint64
	Faults     uint64

	// Durable-recovery counters: dependency-log appends, group-commit
	// fsync passes, WAL replays, the widest replay wave observed
	// (replay parallelism), and the total replay wall time in ns.
	WALAppends       uint64
	WALSyncs         uint64
	Recovers         uint64
	replayMaxParBits uint64
	RecoverNS        int64

	// Storage counters: buffer-pool page reads split hit/miss, page
	// write-backs, clock evictions, and the disk bytes moved either way.
	// PoolMisses is exactly the backend read count.
	PageReads    uint64
	PoolHits     uint64
	PoolMisses   uint64
	PageWrites   uint64
	PageEvicts   uint64
	BytesRead    uint64
	BytesWritten uint64

	// Histograms: decision control-CPU cost (clocks), decision wall
	// duration (µs), lock-queue depth at request submission, WTPG size
	// at decision time, commit response times (seconds), and WAL
	// group-commit batch sizes (records per fsync pass).
	DecisionCPU  *Histogram
	DecisionWall *Histogram
	QueueDepth   *Histogram
	GraphSize    *Histogram
	ResponseTime *Histogram
	WALBatch     *Histogram
}

func newSchedMetrics(label string) *SchedMetrics {
	return &SchedMetrics{
		Sched:        label,
		DecisionCPU:  NewHistogram(decadeBounds(1, 1e4)...),
		DecisionWall: NewHistogram(decadeBounds(1, 1e5)...),
		QueueDepth:   NewHistogram(decadeBounds(1, 1e3)...),
		GraphSize:    NewHistogram(decadeBounds(1, 1e3)...),
		ResponseTime: NewHistogram(decadeBounds(0.1, 1e3)...),
		WALBatch:     NewHistogram(decadeBounds(1, 1e3)...),
	}
}

// Objects returns the total processed-object count (KindObjectDone).
func (sm *SchedMetrics) Objects() float64 { return loadFloat(&sm.objectsBits) }

// CritPathMax returns the longest critical path observed, in objects.
func (sm *SchedMetrics) CritPathMax() float64 { return loadFloat(&sm.critPathMaxBits) }

// ReplayMaxPar returns the widest WAL replay wave observed.
func (sm *SchedMetrics) ReplayMaxPar() float64 { return loadFloat(&sm.replayMaxParBits) }

// PoolHitRate returns the buffer-pool hit rate, hits/(hits+misses),
// or 0 before any page was read.
func (sm *SchedMetrics) PoolHitRate() float64 {
	h := atomic.LoadUint64(&sm.PoolHits)
	m := atomic.LoadUint64(&sm.PoolMisses)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// AdmitDecisions returns the admit-decision counts by outcome
// ("granted", "delayed", …) as a freshly built map.
func (sm *SchedMetrics) AdmitDecisions() map[string]uint64 { return sm.admitDec.counts() }

// RequestDecisions returns the request-decision counts by outcome.
func (sm *SchedMetrics) RequestDecisions() map[string]uint64 { return sm.requestDec.counts() }

// Metrics is a Sink accumulating counters and histograms per scheduler
// label. Safe for concurrent use; the zero value is not ready — use
// NewMetrics. The hot path — every counter and histogram update — is
// atomic; the only lock is a read-mostly RWMutex resolving the
// scheduler label to its aggregate (write-locked once per new label).
//
// Sink ownership rule: a parallel harness (the experiments worker pool)
// must not hand one Metrics to many concurrently running simulations —
// not because Observe would race (it is atomic), but because interleaved
// runs would make readback order nondeterministic. Instead, each run
// emits into a private buffer and the harness replays finished buffers
// into the one shared Metrics in grid order (experiments.WithTrace).
// Accessors (Sched, Schedulers, Summary) are only meaningful once the
// producing runs have completed.
type Metrics struct {
	mu  sync.RWMutex
	per map[string]*SchedMetrics
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{per: make(map[string]*SchedMetrics)}
}

func (m *Metrics) sched(label string) *SchedMetrics {
	if label == "" {
		label = "(unlabeled)"
	}
	m.mu.RLock()
	sm := m.per[label]
	m.mu.RUnlock()
	if sm != nil {
		return sm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if sm = m.per[label]; sm == nil {
		sm = newSchedMetrics(label)
		m.per[label] = sm
	}
	return sm
}

// Observe dispatches one event into the counters.
func (m *Metrics) Observe(e Event) {
	sm := m.sched(e.Sched)
	switch e.Kind {
	case KindAdmit:
		atomic.AddUint64(&sm.Admits, 1)
	case KindRequest:
		atomic.AddUint64(&sm.Requests, 1)
		sm.QueueDepth.Add(float64(e.Queue))
	case KindDecision:
		if e.Op == "admit" {
			sm.admitDec.add(e.Decision)
		} else {
			sm.requestDec.add(e.Decision)
		}
		sm.DecisionCPU.Add(float64(e.CPU))
		if e.DurNS > 0 {
			sm.DecisionWall.Add(float64(e.DurNS) / 1e3)
		}
		sm.GraphSize.Add(float64(e.Graph))
	case KindObjectDone:
		atomicAddFloat(&sm.objectsBits, e.Objects)
	case KindCommit:
		if e.Decision == "aborted" {
			atomic.AddUint64(&sm.Aborts, 1)
		} else {
			atomic.AddUint64(&sm.Commits, 1)
			sm.ResponseTime.Add(e.RT.Seconds())
		}
	case KindResolve:
		atomic.AddUint64(&sm.Resolves, 1)
	case KindCriticalPathChange:
		atomic.AddUint64(&sm.CritPathChanges, 1)
		atomicMaxFloat(&sm.critPathMaxBits, e.CritPath)
	case KindAbort:
		atomic.AddUint64(&sm.Recoveries, 1)
	case KindFault:
		atomic.AddUint64(&sm.Faults, 1)
	case KindWALAppend:
		atomic.AddUint64(&sm.WALAppends, 1)
	case KindWALSync:
		atomic.AddUint64(&sm.WALSyncs, 1)
		sm.WALBatch.Add(float64(e.Batch))
	case KindRecover:
		atomic.AddUint64(&sm.Recovers, 1)
		atomic.AddInt64(&sm.RecoverNS, e.DurNS)
		atomicMaxFloat(&sm.replayMaxParBits, float64(e.Clusters))
	case KindPageRead:
		atomic.AddUint64(&sm.PageReads, 1)
		if e.Op == "hit" {
			atomic.AddUint64(&sm.PoolHits, 1)
		} else {
			atomic.AddUint64(&sm.PoolMisses, 1)
		}
		atomic.AddUint64(&sm.BytesRead, uint64(e.Batch))
	case KindPageWrite:
		atomic.AddUint64(&sm.PageWrites, 1)
		atomic.AddUint64(&sm.BytesWritten, uint64(e.Batch))
	case KindPageEvict:
		atomic.AddUint64(&sm.PageEvicts, 1)
	}
}

// Close does nothing; the accumulated metrics stay readable.
func (m *Metrics) Close() error { return nil }

// Schedulers returns the observed scheduler labels, sorted.
func (m *Metrics) Schedulers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.per))
	for label := range m.per {
		out = append(out, label)
	}
	slices.Sort(out)
	return out
}

// Sched returns a snapshot-by-reference of one scheduler's metrics
// (nil if the label was never observed). The caller must not mutate it
// while events are still being observed.
func (m *Metrics) Sched(label string) *SchedMetrics {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.per[label]
}

// decisionLine renders a decision-count map as "1234 granted, 5 delayed".
func decisionLine(counts map[string]uint64) string {
	if len(counts) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		if k == "" {
			k = "?"
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	return strings.Join(parts, ", ")
}

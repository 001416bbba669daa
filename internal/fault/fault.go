// Package fault makes deterministic, seedable fault decisions for the
// BAT simulator, which models the machine the faults happen to.
//
// Bulk access transactions run for minutes; the schedulers are proved
// deadlock-free but the proofs assume nothing ever dies. This package
// supplies the deaths: transaction aborts mid-bulk-processing, slow I/O
// on a partition, refused admission bursts, whole-data-node crashes
// (partitions re-homed to the survivors) and whole-machine kills. The
// live controller models no machine and takes no injector: its
// batteries ask the same decisions (AbortAt, IOFactor) from the work
// callbacks they pass to Run. Every decision is a pure function of
// (seed, identifier), so a fault schedule is reproducible from its seed
// alone and — crucially for the simulator's golden tests — independent
// of the order in which questions are asked. An Injector never consults
// a stateful RNG stream.
//
// All methods are nil-safe: a nil *Injector injects nothing, so call
// sites need no guards. See docs/ROBUSTNESS.md for the fault model and
// the recovery semantics each fault exercises.
package fault

import (
	"errors"
	"fmt"
	"math"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// Config sets the per-kind fault rates. All rates are probabilities in
// [0,1] evaluated independently per transaction (or per partition for
// SlowIORate); zero disables the kind.
type Config struct {
	// AbortRate is the fraction of transactions that die mid-run: the
	// victim aborts after processing a deterministic fraction of its
	// declared demand (between 15% and 95%).
	AbortRate float64
	// SlowIORate is the fraction of partitions whose bulk I/O runs slow;
	// SlowIOFactor is the multiplier applied there (default 4).
	SlowIORate   float64
	SlowIOFactor float64
	// AdmitRefusalRate is the fraction of transactions whose admission
	// is refused at the control node before the scheduler even sees
	// them (a control-node overload / message-loss stand-in); refusals
	// repeat for AdmitRefusalBurst consecutive attempts (default 2).
	AdmitRefusalRate  float64
	AdmitRefusalBurst int
	// NodeCrashes is the exact number of data-processing nodes that die
	// mid-run (an exact count, not a rate, so chaos matrices can pin the
	// dimension). Which nodes die and when is a pure function of the
	// seed: see NodeCrash. The count is clamped so at least one node
	// survives. NodeCrashWindow bounds the interval in which the crash
	// times land; the consumer (package sim) substitutes its horizon
	// when zero.
	NodeCrashes     int
	NodeCrashWindow event.Time
	// KillRestart schedules a whole-machine kill (SIGKILL-equivalent):
	// the run is cut off at a deterministic point inside KillWindow (the
	// consumer substitutes its horizon when the window is zero), its
	// write-ahead log crash-closed with a torn tail, and recovery
	// replayed from the surviving log prefix. See KillAt.
	KillRestart bool
	KillWindow  event.Time
}

// Validate rejects rates outside [0,1] (NaN included), a negative or
// non-finite SlowIOFactor and negative tuning knobs.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"AbortRate", c.AbortRate},
		{"SlowIORate", c.SlowIORate},
		{"AdmitRefusalRate", c.AdmitRefusalRate},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("fault: %s = %v outside [0,1]", r.name, r.v)
		}
	}
	if !(c.SlowIOFactor >= 0) || math.IsInf(c.SlowIOFactor, 1) {
		return fmt.Errorf("fault: SlowIOFactor = %v, want a finite factor ≥ 0", c.SlowIOFactor)
	}
	if c.AdmitRefusalBurst < 0 {
		return errors.New("fault: negative tuning parameter")
	}
	if c.NodeCrashes < 0 || c.NodeCrashWindow < 0 {
		return errors.New("fault: negative node-crash parameter")
	}
	if c.KillWindow < 0 {
		return errors.New("fault: negative kill window")
	}
	return nil
}

// Injector makes deterministic fault decisions from a seed. The zero
// value (and nil) injects nothing.
type Injector struct {
	seed uint64
	cfg  Config
}

// New builds an injector for the given seed and config, applying
// defaults: SlowIOFactor 4, AdmitRefusalBurst 2.
func New(seed uint64, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SlowIOFactor == 0 {
		cfg.SlowIOFactor = 4
	}
	if cfg.AdmitRefusalBurst == 0 {
		cfg.AdmitRefusalBurst = 2
	}
	return &Injector{seed: seed, cfg: cfg}, nil
}

// Config returns the effective configuration (zero for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// mix is a splitmix64 finalizer: a high-quality 64-bit mixing function
// turning (seed, domain, id) into an independent uniform draw.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Per-fault-kind domain separators so the same id draws independently
// for each fault kind.
const (
	domAbort uint64 = 0xA110C8ED << 1
	domSlow  uint64 = 0x51070D ^ 0xFFFF0000
	domAdmit uint64 = 0xAD317000
	domNode  uint64 = 0xD0DEAD00
	domKill  uint64 = 0x6E55A110
)

// unit maps (seed, domain, id) to a uniform float64 in [0,1).
func (in *Injector) unit(domain, id uint64) float64 {
	h := mix(in.seed ^ mix(domain+id))
	return float64(h>>11) / (1 << 53)
}

// AbortAt reports whether t is scheduled to die, and if so after how
// many processed objects: a deterministic fraction in [0.15, 0.95] of
// its declared total demand, so the abort always lands mid-run with
// real work (locks held, weights partially adjusted) to unwind.
func (in *Injector) AbortAt(t *txn.T) (objects float64, ok bool) {
	if in == nil || in.cfg.AbortRate == 0 {
		return 0, false
	}
	if in.unit(domAbort, uint64(t.ID)) >= in.cfg.AbortRate {
		return 0, false
	}
	frac := 0.15 + 0.80*in.unit(domAbort+1, uint64(t.ID))
	return frac * t.DeclaredTotal(), true
}

// IOFactor returns the bulk-I/O time multiplier for partition p:
// SlowIOFactor for partitions drawn slow, 1 otherwise.
func (in *Injector) IOFactor(p txn.PartitionID) float64 {
	if in == nil || in.cfg.SlowIORate == 0 {
		return 1
	}
	if in.unit(domSlow, uint64(p)) < in.cfg.SlowIORate {
		return in.cfg.SlowIOFactor
	}
	return 1
}

// RefuseAdmit reports whether admission attempt number `attempt`
// (0-based) of transaction id should be refused before reaching the
// scheduler. Selected transactions are refused for the first
// AdmitRefusalBurst attempts and then admitted normally, modelling a
// transient control-node overload.
func (in *Injector) RefuseAdmit(id txn.ID, attempt int) bool {
	if in == nil || in.cfg.AdmitRefusalRate == 0 {
		return false
	}
	if attempt >= in.cfg.AdmitRefusalBurst {
		return false
	}
	return in.unit(domAdmit, uint64(id)) < in.cfg.AdmitRefusalRate
}

// NodeCrash reports whether data node `node` (of numNodes total) dies
// mid-run, and if so at what time. The NodeCrashes nodes with the
// smallest hash keys die (ties broken by lower node ID), clamped so at
// least one node always survives; each victim's crash time is a
// deterministic fraction in [0.15, 0.85] of NodeCrashWindow (or of
// `window` when the config leaves it zero — package sim passes its
// horizon). Like every decision in this package it is a pure function
// of (seed, node), so a crash schedule replays identically regardless
// of the order nodes are asked in.
func (in *Injector) NodeCrash(node, numNodes int, window event.Time) (at event.Time, ok bool) {
	if in == nil || in.cfg.NodeCrashes <= 0 || numNodes <= 1 || node < 0 || node >= numNodes {
		return 0, false
	}
	if in.cfg.NodeCrashWindow > 0 {
		window = in.cfg.NodeCrashWindow
	}
	if window <= 0 {
		return 0, false
	}
	crashes := in.cfg.NodeCrashes
	if crashes > numNodes-1 {
		crashes = numNodes - 1
	}
	// Rank node's key among all nodes' keys; the `crashes` smallest die.
	key := func(n int) uint64 { return mix(in.seed ^ mix(domNode+uint64(n))) }
	mine := key(node)
	rank := 0
	for n := 0; n < numNodes; n++ {
		if n == node {
			continue
		}
		if k := key(n); k < mine || (k == mine && n < node) {
			rank++
		}
	}
	if rank >= crashes {
		return 0, false
	}
	frac := 0.15 + 0.70*in.unit(domNode+1, uint64(node))
	at = event.Time(frac * float64(window))
	if at < 1 {
		at = 1
	}
	return at, true
}

// KillAt reports whether a whole-machine kill is scheduled, and if so
// when: a deterministic point in [0.15, 0.85] of KillWindow (or of
// `window` when the config leaves it zero), so the kill always lands
// with transactions genuinely in flight — never in the empty warm-up
// prefix or the drained tail. Alongside the time the caller needs a
// second draw for how much of the log's unsynced tail survives the
// kill (the kernel may have flushed part of a dying process's buffers):
// KillFlushFrac supplies it, uniform in [0,1).
func (in *Injector) KillAt(window event.Time) (at event.Time, ok bool) {
	if in == nil || !in.cfg.KillRestart {
		return 0, false
	}
	if in.cfg.KillWindow > 0 {
		window = in.cfg.KillWindow
	}
	if window <= 0 {
		return 0, false
	}
	frac := 0.15 + 0.70*in.unit(domKill, 0)
	at = event.Time(frac * float64(window))
	if at < 1 {
		at = 1
	}
	return at, true
}

// KillFlushFrac is the fraction of buffered-but-unsynced log bytes that
// survive the kill (see KillAt). Zero for nil or non-kill injectors.
func (in *Injector) KillFlushFrac() float64 {
	if in == nil || !in.cfg.KillRestart {
		return 0
	}
	return in.unit(domKill+1, 0)
}

// Enabled reports whether the injector can produce any fault at all.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	c := in.cfg
	return c.AbortRate > 0 || c.SlowIORate > 0 || c.AdmitRefusalRate > 0 ||
		c.NodeCrashes > 0 || c.KillRestart
}

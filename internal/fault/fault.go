// Package fault makes deterministic, seedable fault decisions for the
// BAT simulator.
//
// Bulk access transactions run for minutes; the schedulers are proved
// deadlock-free but the proofs assume nothing ever dies. This package
// supplies one death: a transaction aborted mid-bulk-processing. The
// live controller takes no injector: its batteries ask AbortAt from the
// work callbacks they pass to Run, and kill the log and the store
// themselves (wal.Log.Crash, storage.Store.Crash). Every
// decision is a pure function of (seed, identifier), so a fault
// schedule is reproducible from its seed alone and — crucially for the
// simulator's golden tests — independent of the order in which
// questions are asked. An Injector never consults a stateful RNG
// stream.
//
// All methods are nil-safe: a nil *Injector injects nothing, so call
// sites need no guards. See docs/ROBUSTNESS.md for the fault model and
// the recovery semantics each fault exercises.
package fault

import (
	"fmt"

	"batsched/internal/txn"
)

// Config sets what the injector decides. AbortRate is a probability in
// [0,1] evaluated independently per transaction; zero disables it.
type Config struct {
	// AbortRate is the fraction of transactions that die mid-run: the
	// victim aborts after processing a deterministic fraction of its
	// declared demand (between 15% and 95%).
	AbortRate float64
}

// Validate rejects an AbortRate outside [0,1], NaN included.
func (c Config) Validate() error {
	if !(c.AbortRate >= 0 && c.AbortRate <= 1) {
		return fmt.Errorf("fault: AbortRate = %v outside [0,1]", c.AbortRate)
	}
	return nil
}

// Injector makes deterministic fault decisions from a seed. The zero
// value (and nil) injects nothing.
type Injector struct {
	seed uint64
	cfg  Config
}

// New builds an injector for the given seed and config.
func New(seed uint64, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{seed: seed, cfg: cfg}, nil
}

// mix is a splitmix64 finalizer: a high-quality 64-bit mixing function
// turning (seed, domain, id) into an independent uniform draw.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// domAbort separates the abort draws' domain: whether t dies at
// domAbort, where at domAbort+1.
const domAbort uint64 = 0xA110C8ED << 1

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

// Enabled reports whether the injector can produce any fault at all.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.AbortRate > 0 }

package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"batsched/internal/txn"
)

// pageKey names one page: its partition heap file and page number.
type pageKey struct {
	part txn.PartitionID
	page uint32
}

// Frame is one buffer-pool slot: a page-sized buffer plus the pin/dirty
// bookkeeping. All fields are guarded by the owning stripe's latch.
type Frame struct {
	key   pageKey
	buf   []byte
	pins  int
	dirty bool
	ref   bool // clock second-chance bit
	valid bool

	// transient marks an overflow frame served while every frame of the
	// page's stripe was pinned: it lives outside the frame array and the
	// index, and is written back (when dirty) and discarded on its final
	// Unpin.
	transient bool
}

// Page returns the frame's content as a slotted page. Only valid while
// the caller holds a pin.
func (f *Frame) Page() Page { return Page{b: f.buf} }

// pageIO is the pool's backend: reading a page image from its heap file
// and writing one back. Implemented by Store.
type pageIO interface {
	readPage(k pageKey, buf []byte) error
	writePage(k pageKey, buf []byte) error
}

// PoolStats is a snapshot of one pool's counters (or, via Store.Stats,
// the sum over every per-node pool). Misses is exactly the number of
// backend page reads.
type PoolStats struct {
	Frames       int
	Stripes      int
	Pinned       int
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	BytesRead    uint64
	BytesWritten uint64
	Flushes      uint64 // dirty pages written back by the background flusher
	Overflows    uint64 // transient frames served while a stripe was fully pinned

	// Prefetches is always 0: the pool does no read-ahead. The field
	// stays declared only because benchmark/live.go reads it and
	// benchmark/ is frozen by BENCHMARK.json; it leaves with
	// storage.prefetches_per_txn in the next benchmark change.
	Prefetches uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any access.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s *PoolStats) add(o PoolStats) {
	s.Frames += o.Frames
	s.Stripes += o.Stripes
	s.Pinned += o.Pinned
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Flushes += o.Flushes
	s.Overflows += o.Overflows
}

// poolEventFn reports page traffic to the store's observer wiring.
// Called with the owning stripe's latch held.
type poolEventFn func(op string, k pageKey, bytes int)

// stripe is one latch domain of the pool: a private set of frames with
// its own clock hand, page index, and dirty list. A page maps to exactly
// one stripe (by pageKey hash), so two accesses contend only when their
// pages share a stripe — concurrent scans of different partitions run on
// different latches and different disk arms, the per-partition I/O
// independence of a shared-nothing node array.
type stripe struct {
	mu     sync.Mutex
	frames []*Frame
	idx    map[pageKey]*Frame
	hand   int
	dirty  []pageKey // keys that transitioned clean→dirty; may hold stale entries

	// Counters are atomics so Stats can aggregate without taking any
	// stripe latch. pinned tracks 0→1 / 1→0 pin transitions (transient
	// overflow pins included).
	hits, misses, evictions, bytesRead, bytesWritten, flushes, overflows uint64
	pinned                                                               int64

	// ioErr latches a write-back failure from a transient frame's final
	// Unpin (which cannot return an error); the next FlushPart/FlushAll/
	// flushDirty on this stripe surfaces it.
	ioErr error
}

const (
	maxStripes         = 16
	minFramesPerStripe = 8
	flushMinBatch      = 32 // smallest per-stripe write budget per flusher pass
)

// autoStripes picks the largest power-of-two stripe count (≤ maxStripes)
// that still leaves every stripe at least minFramesPerStripe frames, so
// tiny pools (the eviction-pressure tests) degrade to a single latch
// with the old pool's exact behavior.
func autoStripes(frames int) int {
	s := 1
	for s*2 <= maxStripes && frames/(s*2) >= minFramesPerStripe {
		s *= 2
	}
	return s
}

// Pool is a fixed-capacity buffer pool with clock (second-chance)
// eviction, latch-striped by pageKey hash: each stripe owns an equal
// share of the frames and serializes only its own pages' I/O. One pool
// serves one data node's partitions.
type Pool struct {
	io      pageIO
	stripes []*stripe
	mask    uint32

	// onEvent reports page traffic to the store's observer wiring
	// (nil = unobserved); swapped atomically so Bind never stops the
	// pool.
	onEvent atomic.Pointer[poolEventFn]
}

func newPool(io pageIO, frames, pageSize int) *Pool {
	return newPoolStriped(io, frames, pageSize, autoStripes(frames))
}

func newPoolStriped(io pageIO, frames, pageSize, stripes int) *Pool {
	if stripes < 1 {
		stripes = 1
	}
	// Round down to a power of two and never let a stripe drop below
	// two frames (one pinned, one victim candidate).
	pow := 1
	for pow*2 <= stripes {
		pow *= 2
	}
	stripes = pow
	for stripes > 1 && frames/stripes < 2 {
		stripes /= 2
	}
	p := &Pool{io: io, mask: uint32(stripes - 1)}
	p.stripes = make([]*stripe, stripes)
	per, rem := frames/stripes, frames%stripes
	for i := range p.stripes {
		n := per
		if i < rem {
			n++
		}
		s := &stripe{idx: make(map[pageKey]*Frame, n)}
		s.frames = make([]*Frame, n)
		for j := range s.frames {
			s.frames[j] = &Frame{buf: make([]byte, pageSize)}
		}
		p.stripes[i] = s
	}
	return p
}

func (p *Pool) stripeOf(k pageKey) *stripe {
	h := (uint64(uint32(k.part))+1)*0x9E3779B97F4A7C15 ^ (uint64(k.page)+1)*0xA24BAED4963EE407
	h ^= h >> 32
	return p.stripes[uint32(h)&p.mask]
}

func (p *Pool) event(op string, k pageKey, bytes int) {
	if fn := p.onEvent.Load(); fn != nil {
		(*fn)(op, k, bytes)
	}
}

// Get pins the frame holding page k, reading it from disk on a miss.
// When create is set the page is expected not to exist on disk and the
// frame is initialized empty instead of read. The caller must Unpin.
func (p *Pool) Get(k pageKey, create bool) (*Frame, error) {
	s := p.stripeOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.idx[k]; ok {
		f.ref = true
		if f.pins == 0 {
			atomic.AddInt64(&s.pinned, 1)
		}
		f.pins++
		atomic.AddUint64(&s.hits, 1)
		p.event("hit", k, 0)
		return f, nil
	}
	f, err := s.victimLocked()
	if err != nil {
		// Every frame of this stripe is pinned. Striping must not shrink
		// the pool's effective capacity below the PR 9 single-latch
		// semantics (exhaustion only when *all* frames are pinned), so
		// spill to a transient frame instead of failing the access.
		return p.overflowLocked(s, k, create)
	}
	wasDirty := f.dirty
	if wasDirty {
		// A refused write-back (the write barrier could not force the log,
		// or the write failed) leaves the victim as it was — cached,
		// indexed and dirty: it may hold the only copy of its effects.
		if err := p.writeBackLocked(s, f, "write"); err != nil {
			return nil, err
		}
	}
	if f.valid {
		delete(s.idx, f.key)
		atomic.AddUint64(&s.evictions, 1)
		op := "evict-clean"
		if wasDirty {
			op = "evict-dirty"
		}
		p.event(op, f.key, 0)
	}
	if create {
		InitPage(f.buf, k.page)
	} else {
		if err := p.io.readPage(k, f.buf); err != nil {
			f.valid = false
			return nil, err
		}
		atomic.AddUint64(&s.bytesRead, uint64(len(f.buf)))
	}
	atomic.AddUint64(&s.misses, 1)
	bytes := 0
	if !create {
		bytes = len(f.buf)
	}
	p.event("miss", k, bytes)
	f.key = k
	f.valid = true
	f.dirty = create // a created page must reach disk even if untouched
	f.ref = true
	f.pins = 1
	atomic.AddInt64(&s.pinned, 1)
	s.idx[k] = f
	if create {
		s.dirty = append(s.dirty, k)
	}
	return f, nil
}

// overflowLocked serves page k from a freshly allocated transient frame
// when the stripe's clock found every frame pinned. The frame is never
// indexed — it exists only for its pinner and dies on the final Unpin
// (written back first when dirty). Sound for the same reason FlushPart
// may write pinned frames: the scheduler's partition locks exclude
// concurrent same-partition mutators, so a transient copy can never
// diverge from a cached one that matters.
func (p *Pool) overflowLocked(s *stripe, k pageKey, create bool) (*Frame, error) {
	f := &Frame{buf: make([]byte, len(s.frames[0].buf)), transient: true}
	if create {
		InitPage(f.buf, k.page)
	} else {
		if err := p.io.readPage(k, f.buf); err != nil {
			return nil, err
		}
		atomic.AddUint64(&s.bytesRead, uint64(len(f.buf)))
	}
	atomic.AddUint64(&s.misses, 1)
	atomic.AddUint64(&s.overflows, 1)
	bytes := 0
	if !create {
		bytes = len(f.buf)
	}
	p.event("miss", k, bytes)
	f.key = k
	f.valid = true
	f.dirty = create
	f.pins = 1
	atomic.AddInt64(&s.pinned, 1)
	return f, nil
}

// victimLocked runs the stripe's clock hand: skip pinned frames, clear
// one second-chance bit per lap, take the first unpinned frame without
// one.
func (s *stripe) victimLocked() (*Frame, error) {
	for sweep := 0; sweep < 2*len(s.frames); sweep++ {
		f := s.frames[s.hand]
		s.hand = (s.hand + 1) % len(s.frames)
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f, nil
	}
	return nil, fmt.Errorf("storage: buffer pool stripe exhausted (%d frames, all pinned)", len(s.frames))
}

func (p *Pool) writeBackLocked(s *stripe, f *Frame, op string) error {
	f.Page().Seal()
	if err := p.io.writePage(f.key, f.buf); err != nil {
		return err
	}
	atomic.AddUint64(&s.bytesWritten, uint64(len(f.buf)))
	if op == "flush" {
		atomic.AddUint64(&s.flushes, 1)
	}
	f.dirty = false
	p.event(op, f.key, len(f.buf))
	return nil
}

// Unpin releases one pin, marking the frame dirty when the caller
// mutated the page. Unpinning an unpinned frame is a programming error
// and panics — the invariant the pool tests assert under -race, and the
// guard that makes zero-copy scans safe: a frame can never be recycled
// while records still alias it without tripping this accounting.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	s := p.stripeOf(f.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned frame (part %v page %d)", f.key.part, f.key.page))
	}
	f.pins--
	if f.pins == 0 {
		atomic.AddInt64(&s.pinned, -1)
	}
	if dirty && !f.dirty {
		f.dirty = true
		if !f.transient {
			s.dirty = append(s.dirty, f.key)
		}
	}
	if f.transient && f.pins == 0 {
		if f.dirty {
			if err := p.writeBackLocked(s, f, "write"); err != nil {
				if s.ioErr == nil {
					s.ioErr = err
				}
			} else if f2, ok := s.idx[f.key]; ok && f2.pins == 0 {
				// The disk image just moved past a cached copy loaded
				// meanwhile. The scheduler's partition exclusion should
				// make that impossible; should it ever happen, drop the
				// copy so no reader sees the stale page.
				delete(s.idx, f.key)
				f2.valid = false
				f2.dirty = false
			}
		}
		f.valid = false
	}
}

// flushDirty writes back the pool's dirty, unpinned frames — the
// background flusher's unit of work. Pinned frames are left on the
// dirty list for the next pass (a mutator is mid-update under its pin;
// FlushPart/FlushAll keep the old may-write-pinned contract for the
// synchronous checkpoint paths). The dirty list is oldest-first, and
// each pass writes at most a fraction of the backlog (never fewer than
// flushMinBatch): recently dirtied pages linger a few passes, so
// repeated commits to a hot page coalesce into one write, and no
// single pass stalls the stripe latches on a huge backlog. Returns
// the number of pages written.
func (p *Pool) flushDirty() (int, error) {
	n := 0
	var firstErr error
	for _, s := range p.stripes {
		s.mu.Lock()
		if s.ioErr != nil && firstErr == nil {
			firstErr, s.ioErr = s.ioErr, nil
		}
		pending := s.dirty
		budget := len(pending) / 8
		if budget < flushMinBatch {
			budget = flushMinBatch
		}
		keep := pending[:0]
		wrote := 0
		for i, k := range pending {
			if wrote >= budget {
				keep = append(keep, pending[i:]...)
				break
			}
			f, ok := s.idx[k]
			if !ok || !f.valid || !f.dirty {
				continue // stale entry: evicted or already written back
			}
			if f.pins > 0 {
				keep = append(keep, k)
				continue
			}
			if err := p.writeBackLocked(s, f, "flush"); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				keep = append(keep, k)
				continue
			}
			wrote++
		}
		n += wrote
		s.dirty = keep
		s.mu.Unlock()
	}
	return n, firstErr
}

// FlushPart writes back every dirty frame of one partition (pinned
// frames included: their current image is consistent — mutators hold
// the partition's op lock and the scheduler's partition lock).
func (p *Pool) FlushPart(part txn.PartitionID) error {
	for _, s := range p.stripes {
		s.mu.Lock()
		if err := s.ioErr; err != nil {
			s.ioErr = nil
			s.mu.Unlock()
			return err
		}
		for _, f := range s.frames {
			if f.valid && f.dirty && f.key.part == part {
				if err := p.writeBackLocked(s, f, "write"); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// FlushAll writes back every dirty frame.
func (p *Pool) FlushAll() error {
	for _, s := range p.stripes {
		s.mu.Lock()
		if err := s.ioErr; err != nil {
			s.ioErr = nil
			s.mu.Unlock()
			return err
		}
		for _, f := range s.frames {
			if f.valid && f.dirty {
				if err := p.writeBackLocked(s, f, "write"); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// invalidate drops every cached frame of one partition without writing
// it back (used by crash simulation: dirty pages die with the process).
func (p *Pool) invalidate(part txn.PartitionID) {
	for _, s := range p.stripes {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.valid && f.key.part == part {
				delete(s.idx, f.key)
				f.valid = false
				f.dirty = false
				if f.pins > 0 {
					atomic.AddInt64(&s.pinned, -1)
				}
				f.pins = 0
			}
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the pool's counters by summing per-stripe atomics —
// no latch is taken, so a snapshot never stops concurrent page traffic
// (and is safe to call from any goroutine, including mid-churn).
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Stripes: len(p.stripes)}
	for _, s := range p.stripes {
		st.add(s.stats())
	}
	return st
}

// StripeStats snapshots each stripe's counters separately (test hook
// for asserting traffic actually spreads across latches).
func (p *Pool) StripeStats() []PoolStats {
	out := make([]PoolStats, len(p.stripes))
	for i, s := range p.stripes {
		out[i] = s.stats()
	}
	return out
}

func (s *stripe) stats() PoolStats {
	return PoolStats{
		Frames:       len(s.frames),
		Pinned:       int(atomic.LoadInt64(&s.pinned)),
		Hits:         atomic.LoadUint64(&s.hits),
		Misses:       atomic.LoadUint64(&s.misses),
		Evictions:    atomic.LoadUint64(&s.evictions),
		BytesRead:    atomic.LoadUint64(&s.bytesRead),
		BytesWritten: atomic.LoadUint64(&s.bytesWritten),
		Flushes:      atomic.LoadUint64(&s.flushes),
		Overflows:    atomic.LoadUint64(&s.overflows),
	}
}

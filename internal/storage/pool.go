package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// pageKey names one page: its partition heap file and page number.
type pageKey struct {
	part txn.PartitionID
	page uint32
}

// runPages is the number of consecutive pages that share an index entry,
// a stripe and — on a scan — a latch acquisition and a backend read. The
// page stays the unit of pin, dirty, eviction and verification. Measured
// on the benchmark's scan-cold workload (docs/PERFORMANCE.md §12): 4 and
// 8 leave much of the per-page bookkeeping in place; 32 and 64 hold the
// latch across a longer read and verify, and need wider stripes or their
// runs shorten and spill.
const runPages = 16

// runKey names one run: pages [run*runPages, (run+1)*runPages) of part.
type runKey struct {
	part txn.PartitionID
	run  uint32
}

func runOf(k pageKey) runKey { return runKey{k.part, k.page / runPages} }

// runEntry is a stripe's index entry for one run: the frame caching each
// of its pages, nil where the page is not resident. n counts the
// residents; an entry that empties leaves the index.
type runEntry struct {
	slots [runPages]*Frame
	n     int
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

	// run is the index entry holding this frame (nil while it is not
	// indexed), so an eviction needs no lookup.
	run *runEntry

	// transient marks an overflow frame served while every frame of the
	// page's stripe was pinned: it lives outside the frame array and the
	// index, and is written back (when dirty) and discarded on its final
	// Unpin.
	transient bool
}

// Page returns the frame's content as a slotted page. Only valid while
// the caller holds a pin.
func (f *Frame) Page() Page { return Page{b: f.buf} }

// pageIO is the pool's backend: reading consecutive page images from a
// heap file with one call, and writing one back. Implemented by Store.
// readPages delivers bytes only; the pool verifies them.
type pageIO interface {
	readPages(k pageKey, bufs [][]byte, sc *readScratch) error
	writePage(k pageKey, buf []byte) error
}

// PoolStats is a snapshot of the pool's counters, summed over its
// stripes. Misses is exactly the number of pages read from the backend,
// ReadCalls the number of calls that read them: a scan's miss reads the
// rest of its run with it.
type PoolStats struct {
	Frames       int
	Stripes      int
	Pinned       int
	Hits         uint64
	Misses       uint64
	ReadCalls    uint64
	Evictions    uint64
	BytesRead    uint64
	BytesWritten uint64
	Overflows    uint64 // transient frames served while a stripe was fully pinned

	// Prefetches and Flushes are always 0: the pool reads nothing ahead
	// of a request and writes nothing back in the background. The fields
	// stay declared only because benchmark/live.go reads them and
	// benchmark/ is frozen by BENCHMARK.json; they leave with
	// storage.prefetches_per_txn and storage.flushes_per_ktxn in the
	// next benchmark change.
	Prefetches uint64
	Flushes    uint64
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
	s.ReadCalls += o.ReadCalls
	s.Evictions += o.Evictions
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Overflows += o.Overflows
}

// binding is the observer wiring Store.Bind installs: the sink, the
// scheduler label stamped on events, and the clock supplying Event.At —
// the live controller's wall milliseconds.
type binding struct {
	o     obs.Observer
	label string
	clock func() event.Time
}

// stripe is one latch domain of the pool: a private set of frames with
// its own clock hand and run index. A run maps to exactly
// one stripe (by runKey hash), so two accesses contend only when their
// runs share a stripe — concurrent scans of different partitions run on
// different latches and different disk arms, the per-partition I/O
// independence of a shared-nothing node array — and a scan crosses one
// latch per run, not per page.
type stripe struct {
	mu     sync.Mutex
	frames []*Frame
	runs   map[runKey]*runEntry
	spare  []*runEntry // emptied entries, reused so churn allocates nothing
	hand   int

	// Scratch of the read path; the latch covers the read, so it covers
	// these: the buffers of one backend call and the platform's
	// vectored-read state.
	bufs [runPages][]byte
	rd   readScratch

	// Counters are atomics so Stats can aggregate without taking any
	// stripe latch. pinned tracks 0→1 / 1→0 pin transitions (transient
	// overflow pins included).
	hits, misses, readCalls, evictions, bytesRead, bytesWritten, overflows uint64
	pinned                                                                 int64

	// ioErr latches a write-back failure from a transient frame's final
	// Unpin (which cannot return an error); the next FlushAll surfaces
	// it.
	ioErr error
}

const (
	maxStripes = 16
	// A stripe caches whole runs, so it is sized in runs: with fewer than
	// a handful a partition of a few runs that hash together no longer
	// fits the frames of a pool it is smaller than.
	minFramesPerStripe = 4 * runPages
)

// autoStripes picks the largest power-of-two stripe count (≤ maxStripes)
// that still leaves every stripe at least minFramesPerStripe frames, so
// small pools (the default 64 frames, the eviction-pressure tests) are a
// single latch over all their frames.
func autoStripes(frames int) int {
	s := 1
	for s*2 <= maxStripes && frames/(s*2) >= minFramesPerStripe {
		s *= 2
	}
	return s
}

// Pool is a fixed-capacity buffer pool with clock (second-chance)
// eviction, latch-striped by runKey hash: each stripe owns an equal
// share of the frames and serializes only its own runs' I/O. One pool
// serves every partition of its store.
type Pool struct {
	io      pageIO
	stripes []*stripe
	mask    uint32

	// bound is the observer page traffic is reported to (nil =
	// unobserved); swapped atomically so Bind never stops the pool.
	bound atomic.Pointer[binding]
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
		s := &stripe{runs: make(map[runKey]*runEntry, n/runPages+1)}
		s.frames = make([]*Frame, n)
		for j := range s.frames {
			s.frames[j] = &Frame{buf: make([]byte, pageSize)}
		}
		p.stripes[i] = s
	}
	return p
}

func (p *Pool) stripeOf(k pageKey) *stripe {
	h := (uint64(uint32(k.part))+1)*0x9E3779B97F4A7C15 ^ (uint64(k.page/runPages)+1)*0xA24BAED4963EE407
	h ^= h >> 32
	return p.stripes[uint32(h)&p.mask]
}

// event reports one page event to the bound observer. Called with the
// owning stripe's latch held.
func (p *Pool) event(kind obs.Kind, op string, k pageKey, bytes int) {
	b := p.bound.Load()
	if b == nil {
		return
	}
	e := obs.Event{Kind: kind, Op: op, Sched: b.label, Part: k.part, Batch: bytes}
	if b.clock != nil {
		e.At = b.clock()
	}
	b.o.Observe(e)
}

// lookup returns the frame caching page k, or nil.
func (s *stripe) lookup(k pageKey) *Frame {
	if e := s.runs[runOf(k)]; e != nil {
		return e.slots[k.page%runPages]
	}
	return nil
}

// entry returns the index entry of run rk, adding an empty one if the
// run has no resident page. The caller indexes a frame in it before it
// drops the latch.
func (s *stripe) entry(rk runKey) *runEntry {
	e := s.runs[rk]
	if e == nil {
		if n := len(s.spare); n > 0 {
			e, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			e = new(runEntry)
		}
		s.runs[rk] = e
	}
	return e
}

// index enters f, caching page f.key, into e, its run's entry.
func (e *runEntry) index(f *Frame) {
	e.slots[f.key.page%runPages] = f
	e.n++
	f.run = e
}

// unindex drops f from the index and marks it free.
func (s *stripe) unindex(f *Frame) {
	e := f.run
	e.slots[f.key.page%runPages] = nil
	if e.n--; e.n == 0 {
		delete(s.runs, runOf(f.key))
		s.spare = append(s.spare, e)
	}
	f.run = nil
	f.valid = false
	f.dirty = false
}

// Get pins the frame holding page k, reading it from disk on a miss.
// When create is set the page is expected not to exist on disk and the
// frame is initialized empty instead of read. The caller must Unpin.
// This is point access; a scan goes through pinRun.
func (p *Pool) Get(k pageKey, create bool) (*Frame, error) {
	s := p.stripeOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.lookup(k); f != nil {
		f.ref = true
		if f.pins == 0 {
			atomic.AddInt64(&s.pinned, 1)
		}
		f.pins++
		atomic.AddUint64(&s.hits, 1)
		p.event(obs.KindPageRead, "hit", k, 0)
		return f, nil
	}
	f, err := p.claimLocked(s)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return p.overflowLocked(s, k, create)
	}
	f.key = k
	if create {
		InitPage(f.buf, k.page)
	} else if err := p.fillLocked(s, k, []*Frame{f}); err != nil {
		return nil, err
	}
	s.entry(runOf(k)).index(f)
	p.admitLocked(s, f, create)
	return f, nil
}

// pinRun pins the n consecutive pages of part starting at first — all
// of one run, so of one stripe — into out, under a single latch
// acquisition: resident pages are pinned where they are, every other
// page gets a clock victim, each contiguous span of those is read with
// one backend call straight into the claimed frames, and every page read
// is verified before it is indexed. It returns how many pages, counted
// from first, it pinned: n, or fewer when the clock could not supply a
// frame for each missing page (the run shortens, down to one page, and
// that one is served from an overflow frame if every frame is pinned).
// On an error nothing stays pinned. The caller releases with unpinRun.
func (p *Pool) pinRun(part txn.PartitionID, first uint32, n int, out *[runPages]*Frame) (int, error) {
	k := pageKey{part, first}
	s := p.stripeOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()

	// Residents first: a pinned frame cannot become the victim of a page
	// later in the same run.
	e := s.runs[runOf(k)]
	missing := 0
	for i := 0; i < n; i++ {
		var f *Frame
		if e != nil {
			f = e.slots[int(first%runPages)+i]
		}
		if f != nil {
			f.pins++
		} else {
			missing++
		}
		out[i] = f
	}
	// A claimed frame is pinned and not valid until its page is in it.
	got := n
	for i := 0; missing > 0 && i < n; i++ {
		if out[i] != nil {
			continue
		}
		f, err := p.claimLocked(s)
		if err != nil {
			unclaim(out[:n])
			return 0, err
		}
		if f == nil {
			unclaim(out[i:n])
			got = i
			break
		}
		f.key = pageKey{part, first + uint32(i)}
		f.pins = 1
		out[i] = f
		missing--
	}
	if got == 0 {
		f, err := p.overflowLocked(s, k, false)
		if err != nil {
			return 0, err
		}
		out[0] = f
		return 1, nil
	}
	reads := 0
	for lo := 0; lo < got; {
		hi := lo + 1
		if !out[lo].valid {
			for hi < got && !out[hi].valid {
				hi++
			}
			if err := p.fillLocked(s, out[lo].key, out[lo:hi]); err != nil {
				unclaim(out[:got])
				return 0, err
			}
			reads += hi - lo
		}
		lo = hi
	}
	if reads > 0 {
		// Looked up again: a victim claimed above may have been the last
		// resident page of this very run, and emptied its entry.
		e = s.entry(runOf(k))
	}
	newly := 0
	for _, f := range out[:got] {
		if f.pins == 1 {
			newly++
		}
		f.ref = true
		op, bytes := "hit", 0
		if !f.valid {
			f.valid = true
			e.index(f)
			op, bytes = "miss", len(f.buf)
		}
		p.event(obs.KindPageRead, op, f.key, bytes)
	}
	atomic.AddInt64(&s.pinned, int64(newly))
	atomic.AddUint64(&s.hits, uint64(got-reads))
	if reads > 0 {
		atomic.AddUint64(&s.misses, uint64(reads))
		atomic.AddUint64(&s.bytesRead, uint64(reads*len(out[0].buf)))
	}
	return got, nil
}

// unclaim undoes pinRun's work on fs before any of it was counted: a
// resident frame loses the pin it was given, a claimed frame goes back to
// the clock free.
func unclaim(fs []*Frame) {
	for _, f := range fs {
		if f != nil {
			f.pins--
		}
	}
}

// unpinRun releases the pins pinRun took, in one latch acquisition.
func (p *Pool) unpinRun(fs []*Frame) {
	s := p.stripeOf(fs[0].key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range fs {
		p.unpinLocked(s, f, false)
	}
}

// claimLocked takes a frame from the stripe's clock for a page about to
// be loaded: a dirty victim is written back first, through the write
// barrier, and the victim leaves the index. The frame comes back free
// (not valid, not pinned); nil means every frame is pinned. A refused
// write-back (the write barrier could not force the log, or the write
// failed) is an error and leaves the victim as it was — cached, indexed
// and dirty: it may hold the only copy of its effects.
func (p *Pool) claimLocked(s *stripe) (*Frame, error) {
	f := s.victimLocked()
	if f == nil || !f.valid {
		return f, nil
	}
	op := "clean"
	if f.dirty {
		if err := p.writeBackLocked(s, f); err != nil {
			return nil, err
		}
		op = "dirty"
	}
	s.unindex(f)
	atomic.AddUint64(&s.evictions, 1)
	p.event(obs.KindPageEvict, op, f.key, 0)
	return f, nil
}

// fillLocked reads the len(fs) consecutive pages starting at k into fs'
// buffers with one backend call and verifies each — checksum, magic,
// slot directory: nothing unverified is ever indexed. The error names
// the page that failed.
func (p *Pool) fillLocked(s *stripe, k pageKey, fs []*Frame) error {
	bufs := s.bufs[:len(fs)]
	for i, f := range fs {
		bufs[i] = f.buf
	}
	atomic.AddUint64(&s.readCalls, 1)
	if err := p.io.readPages(k, bufs, &s.rd); err != nil {
		return err
	}
	for i, buf := range bufs {
		if _, err := LoadPage(buf); err != nil {
			return fmt.Errorf("storage: read %v page %d: %w", k.part, k.page+uint32(i), err)
		}
	}
	return nil
}

// admitLocked finishes a point-access miss on f, which holds page f.key:
// valid, pinned once, counted.
func (p *Pool) admitLocked(s *stripe, f *Frame, created bool) {
	f.valid = true
	f.dirty = created // a created page must reach disk even if untouched
	f.ref = true
	f.pins = 1
	atomic.AddInt64(&s.pinned, 1)
	atomic.AddUint64(&s.misses, 1)
	bytes := 0
	if !created {
		bytes = len(f.buf)
		atomic.AddUint64(&s.bytesRead, uint64(bytes))
	}
	p.event(obs.KindPageRead, "miss", f.key, bytes)
}

// overflowLocked serves page k from a freshly allocated transient frame
// when the stripe's clock found every frame pinned: striping must not
// shrink the pool's effective capacity below single-latch semantics
// (exhaustion only when *all* frames are pinned), so the access spills
// instead of failing. The frame is never indexed — it exists only for
// its pinner and dies on the final Unpin (written back first when
// dirty). Sound for the same reason FlushAll may write pinned frames:
// the scheduler's partition locks exclude concurrent same-partition
// mutators, so a transient copy can never diverge from a cached one
// that matters.
func (p *Pool) overflowLocked(s *stripe, k pageKey, create bool) (*Frame, error) {
	f := &Frame{key: k, buf: make([]byte, len(s.frames[0].buf)), transient: true}
	if create {
		InitPage(f.buf, k.page)
	} else if err := p.fillLocked(s, k, []*Frame{f}); err != nil {
		return nil, err
	}
	atomic.AddUint64(&s.overflows, 1)
	p.admitLocked(s, f, create)
	return f, nil
}

// victimLocked runs the stripe's clock hand: skip pinned frames, clear
// one second-chance bit per lap, take the first unpinned frame without
// one. Nil when two laps found every frame pinned.
func (s *stripe) victimLocked() *Frame {
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
		return f
	}
	return nil
}

func (p *Pool) writeBackLocked(s *stripe, f *Frame) error {
	f.Page().Seal()
	if err := p.io.writePage(f.key, f.buf); err != nil {
		return err
	}
	atomic.AddUint64(&s.bytesWritten, uint64(len(f.buf)))
	f.dirty = false
	p.event(obs.KindPageWrite, "", f.key, len(f.buf))
	return nil
}

// Unpin releases one pin, marking the frame dirty when the caller
// mutated the page. Unpinning an unpinned frame is a programming error
// and panics — the invariant the pool tests assert under -race: a frame
// can never be recycled while a pinner still reads it without tripping
// this accounting.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	s := p.stripeOf(f.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	p.unpinLocked(s, f, dirty)
}

func (p *Pool) unpinLocked(s *stripe, f *Frame, dirty bool) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned frame (part %v page %d)", f.key.part, f.key.page))
	}
	f.pins--
	if f.pins == 0 {
		atomic.AddInt64(&s.pinned, -1)
	}
	if dirty {
		f.dirty = true
	}
	if f.transient && f.pins == 0 {
		if f.dirty {
			if err := p.writeBackLocked(s, f); err != nil {
				if s.ioErr == nil {
					s.ioErr = err
				}
			} else if f2 := s.lookup(f.key); f2 != nil && f2.pins == 0 {
				// The disk image just moved past a cached copy loaded
				// meanwhile. The scheduler's partition exclusion should
				// make that impossible; should it ever happen, drop the
				// copy so no reader sees the stale page.
				s.unindex(f2)
			}
		}
		f.valid = false
	}
}

// FlushAll writes back every dirty frame (pinned frames included: their
// current image is consistent — mutators hold the partition's op lock
// and the scheduler's partition lock).
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
				if err := p.writeBackLocked(s, f); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
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

func (s *stripe) stats() PoolStats {
	return PoolStats{
		Frames:       len(s.frames),
		Pinned:       int(atomic.LoadInt64(&s.pinned)),
		Hits:         atomic.LoadUint64(&s.hits),
		Misses:       atomic.LoadUint64(&s.misses),
		ReadCalls:    atomic.LoadUint64(&s.readCalls),
		Evictions:    atomic.LoadUint64(&s.evictions),
		BytesRead:    atomic.LoadUint64(&s.bytesRead),
		BytesWritten: atomic.LoadUint64(&s.bytesWritten),
		Overflows:    atomic.LoadUint64(&s.overflows),
	}
}

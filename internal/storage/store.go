package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// Option configures Open.
type Option func(*config)

type config struct {
	pageSize   int
	poolFrames int
	nodes      int
	flushEvery time.Duration
}

// WithPageSize sets the page size (default DefaultPageSize). Must lie
// in [MinPageSize, MaxPageSize]; all heap files of one store share it.
func WithPageSize(n int) Option { return func(c *config) { c.pageSize = n } }

// WithPoolFrames sets each per-node buffer pool's frame count
// (default 64).
func WithPoolFrames(n int) Option { return func(c *config) { c.poolFrames = n } }

// WithBackgroundFlush starts a per-node flusher goroutine that writes
// dirty pages back every interval, so they leave the pool steadily
// instead of only under eviction pressure or at Flush/Close. Safe under
// the no-steal contract — pages are only dirtied after the owning
// transaction's WAL commit record is appended, and writePage forces the
// log through everything appended before a page image leaves the pool
// (SetWriteBarrier), so a page that reaches disk is always redo-covered
// whenever the flusher picks it. Default 0 = no flusher.
func WithBackgroundFlush(every time.Duration) Option {
	return func(c *config) { c.flushEvery = every }
}

// WithNodes splits the buffer pool per data node: partition p is served
// by pool p mod n. The mapping is static — correctness never depends on
// it, so re-homed partitions simply warm a different pool.
func WithNodes(n int) Option { return func(c *config) { c.nodes = n } }

// RecordID locates one tuple: its page and slot within the partition's
// heap file.
type RecordID struct {
	Page uint32
	Slot int
}

// partFile is one partition's heap file. f never changes after Open and
// is read and written concurrently; mu guards only the page count, and
// is never held across I/O. opMu serializes structural mutations (insert,
// redo) so the store's own commit-apply and recovery paths can run
// concurrently. Readers take neither — partition-level concurrency
// control is the scheduler's contract (strict 2PL: a writer excludes
// every reader). base is the page count Open found: those pages may
// hold tuples no log record can redo (a bulk load made before the log
// existed), and a page written in this session can be torn by a crash,
// so Insert extends a reopened file with fresh pages and never refills
// an old one — what was on disk before the session is never rewritten
// on behalf of a commit.
type partFile struct {
	f     *os.File
	vec   vecFile
	mu    sync.Mutex
	pages uint32
	base  uint32
	opMu  sync.Mutex
}

func (pf *partFile) numPages() uint32 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.pages
}

// Store is a directory of per-partition heap files behind per-node
// buffer pools. It also carries the transactional glue the schedulers
// drive: per-transaction staged effects applied at commit (after the
// WAL append, with the write barrier forcing the log before any page
// leaves — the write-ahead contract extended to pages), crash
// simulation for the chaos batteries, and WAL-replay redo.
type Store struct {
	dir      string
	pageSize int
	parts    []*partFile
	pools    []*Pool
	torn     int // pages discarded by open-time recovery

	// Observer wiring (Bind): the sink, the scheduler label stamped on
	// events, and the clock supplying Event.At — the simulator binds its
	// deterministic timeline, the live controller wall milliseconds.
	obsMu    sync.Mutex
	observer obs.Observer
	label    string
	clock    func() event.Time

	// barrier, when set (SetWriteBarrier), runs before every page write
	// and vetoes it by failing; swapped atomically so binding never stops
	// the flushers.
	barrier atomic.Pointer[func() error]

	// Staged effects: write steps stage one deterministic tuple each;
	// commit applies them, abort drops them. Slices are pooled — see
	// effect.go.
	stageMu sync.Mutex
	staged  map[txn.ID]*[]stagedEffect

	// Background flusher wiring (WithBackgroundFlush): one goroutine
	// per pool, stopped by Quiesce/Close/Crash.
	flushEvery time.Duration
	bgMu       sync.Mutex
	bgStop     chan struct{}
	bgWG       sync.WaitGroup

	// Un-fsynced write history for Crash: heap pages are never synced,
	// so a kill may tear any of them; the sequence numbers make the tear
	// deterministic (oldest writes are the ones the kernel most likely
	// completed).
	writeMu  sync.Mutex
	writeSeq map[pageKey]int
	writeN   int

	// Redo bookkeeping: per-partition present-key index built lazily on
	// the first Redo against that partition.
	redoMu   sync.Mutex
	redoKeys map[txn.PartitionID]map[EffectKey]bool

	closed bool
}

type stagedEffect struct {
	step int
	part txn.PartitionID
}

// Open opens (or creates) a store of numParts partition heap files
// under dir, running page-level recovery on existing files: a trailing
// run of torn/corrupt pages is truncated and an interior torn page is
// reinitialized empty (TornPages counts both). Lost committed tuples
// are the WAL's to restore — see Redo.
func Open(dir string, numParts int, opts ...Option) (*Store, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("storage: %d partitions", numParts)
	}
	c := config{pageSize: DefaultPageSize, poolFrames: 64, nodes: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.pageSize < MinPageSize || c.pageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d outside [%d,%d]", c.pageSize, MinPageSize, MaxPageSize)
	}
	if c.poolFrames < 4 {
		return nil, fmt.Errorf("storage: pool of %d frames (min 4)", c.poolFrames)
	}
	if c.nodes < 1 {
		c.nodes = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	st := &Store{
		dir:        dir,
		pageSize:   c.pageSize,
		flushEvery: c.flushEvery,
		staged:     make(map[txn.ID]*[]stagedEffect),
		writeSeq:   make(map[pageKey]int),
		redoKeys:   make(map[txn.PartitionID]map[EffectKey]bool),
	}
	st.pools = make([]*Pool, c.nodes)
	for i := range st.pools {
		st.pools[i] = newPool(st, c.poolFrames, c.pageSize)
	}
	st.parts = make([]*partFile, numParts)
	for p := range st.parts {
		f, err := os.OpenFile(st.partPath(p), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			st.closeFiles()
			return nil, fmt.Errorf("storage: %w", err)
		}
		pf := &partFile{f: f}
		st.parts[p] = pf
		torn, pages, err := st.recoverFile(f)
		if err == nil {
			pf.vec, err = newVecFile(f)
		}
		if err != nil {
			st.closeFiles()
			return nil, err
		}
		st.torn += torn
		pf.pages, pf.base = pages, pages
	}
	if st.flushEvery > 0 {
		st.startFlushers()
	}
	return st, nil
}

// startFlushers launches one background write-back goroutine per pool.
func (st *Store) startFlushers() {
	st.bgMu.Lock()
	defer st.bgMu.Unlock()
	st.bgStop = make(chan struct{})
	// Capture the channel: Quiesce nils the field before closing, so a
	// goroutine re-reading st.bgStop would block on a nil channel forever.
	stop := st.bgStop
	for _, p := range st.pools {
		p := p
		st.bgWG.Add(1)
		go func() {
			defer st.bgWG.Done()
			t := time.NewTicker(st.flushEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					st.flushPass(p)
				}
			}
		}()
	}
}

// flushPass is one background-flusher pass over p. It takes the write
// barrier once, outside the stripe latches, so the per-page barrier
// inside them finds nothing pending; a log that cannot be forced lets no
// page out. Write errors resurface on Flush/Close.
func (st *Store) flushPass(p *Pool) {
	if st.writeBarrier() == nil {
		p.flushDirty()
	}
}

// Quiesce stops the store's background work — the per-node flusher
// goroutines — and waits for them. Nothing is flushed or closed; dirty
// pages stay cached until Flush or Close. Idempotent; Close and Crash
// imply it. Callers comparing pool counters against an observer's (the
// chaos batteries) quiesce first so neither side moves mid-comparison.
func (st *Store) Quiesce() {
	st.bgMu.Lock()
	stop := st.bgStop
	st.bgStop = nil
	st.bgMu.Unlock()
	if stop != nil {
		close(stop)
		st.bgWG.Wait()
	}
}

func (st *Store) partPath(p int) string {
	return filepath.Join(st.dir, fmt.Sprintf("part-%04d.heap", p))
}

// recoverFile verifies every page of one heap file: a partial trailing
// page and trailing pages failing verification are truncated away, and
// interior failures are reinitialized as empty pages. Returns the
// number of pages discarded either way, and the surviving page count.
func (st *Store) recoverFile(f *os.File) (torn int, pages uint32, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("storage: %w", err)
	}
	size := info.Size()
	ps := int64(st.pageSize)
	if rem := size % ps; rem != 0 {
		// A partial page can only be the tail (files grow by whole
		// pages); it is by definition torn.
		size -= rem
		torn++
		if err := f.Truncate(size); err != nil {
			return 0, 0, fmt.Errorf("storage: %w", err)
		}
	}
	n := size / ps
	buf := make([]byte, runPages*st.pageSize)
	valid := make([]bool, n)
	for i := int64(0); i < n; i += runPages {
		run := buf[:min(runPages, n-i)*ps]
		if _, err := f.ReadAt(run, i*ps); err != nil {
			return 0, 0, fmt.Errorf("storage: %w", err)
		}
		for j := int64(0); j*ps < int64(len(run)); j++ {
			if _, err := LoadPage(run[j*ps : (j+1)*ps]); err == nil {
				valid[i+j] = true
			}
		}
	}
	buf = buf[:ps]
	newN := n
	for newN > 0 && !valid[newN-1] {
		newN--
		torn++
	}
	if newN != n {
		if err := f.Truncate(newN * ps); err != nil {
			return 0, 0, fmt.Errorf("storage: %w", err)
		}
	}
	for i := int64(0); i < newN; i++ {
		if valid[i] {
			continue
		}
		torn++
		pg := InitPage(buf, uint32(i))
		pg.Seal()
		if _, err := f.WriteAt(buf, i*ps); err != nil {
			return 0, 0, fmt.Errorf("storage: %w", err)
		}
	}
	return torn, uint32(newN), nil
}

// TornPages returns the number of pages open-time recovery discarded
// (truncated or reinitialized).
func (st *Store) TornPages() int { return st.torn }

// NumPartitions returns the partition count the store was opened with.
func (st *Store) NumPartitions() int { return len(st.parts) }

func (st *Store) poolOf(part txn.PartitionID) *Pool {
	return st.pools[int(part)%len(st.pools)]
}

func (st *Store) pf(part txn.PartitionID) (*partFile, error) {
	if int(part) < 0 || int(part) >= len(st.parts) {
		return nil, fmt.Errorf("storage: partition %v outside [0,%d)", part, len(st.parts))
	}
	return st.parts[part], nil
}

// Bind attaches an observer for page-traffic events (KindPageRead,
// KindPageWrite, KindPageEvict): label stamps Event.Sched and clock
// supplies Event.At. A nil observer unbinds. One binding per running
// simulation/controller — the same single-producer ownership rule as
// obs.Metrics.
func (st *Store) Bind(o obs.Observer, label string, clock func() event.Time) {
	st.obsMu.Lock()
	st.observer, st.label, st.clock = o, label, clock
	st.obsMu.Unlock()
	for _, p := range st.pools {
		if o == nil {
			p.onEvent.Store(nil)
		} else {
			fn := poolEventFn(st.poolEvent)
			p.onEvent.Store(&fn)
		}
	}
}

// SetWriteBarrier installs the WAL-before-pages rule at the one place
// pages reach disk: before every page write — eviction, overflow-frame
// release, the background flusher, FlushPartition, Flush — the store
// calls b, and writes nothing if it fails. internal/durable binds its
// Force: "make the log durable through everything appended so far", a
// mutex and a compare when nothing is pending.
func (st *Store) SetWriteBarrier(b func() error) {
	st.barrier.Store(&b)
}

func (st *Store) writeBarrier() error {
	if b := st.barrier.Load(); b != nil {
		return (*b)()
	}
	return nil
}

// poolEvent translates a pool callback into a structured trace event.
func (st *Store) poolEvent(op string, k pageKey, bytes int) {
	st.obsMu.Lock()
	o, label, clock := st.observer, st.label, st.clock
	st.obsMu.Unlock()
	if o == nil {
		return
	}
	e := obs.Event{
		Sched: label,
		Txn:   0,
		Part:  k.part,
		Node:  int(k.part) % len(st.pools),
		Batch: bytes,
	}
	if clock != nil {
		e.At = clock()
	}
	switch op {
	case "hit":
		e.Kind, e.Op = obs.KindPageRead, "hit"
	case "miss":
		e.Kind, e.Op = obs.KindPageRead, "miss"
	case "write":
		e.Kind = obs.KindPageWrite
	case "flush":
		e.Kind, e.Op = obs.KindPageWrite, "flush"
	case "evict-clean":
		e.Kind, e.Op = obs.KindPageEvict, "clean"
	case "evict-dirty":
		e.Kind, e.Op = obs.KindPageEvict, "dirty"
	default:
		return
	}
	o.Observe(e)
}

// readPages / writePage implement pageIO for the pools.
//
// readPages fills bufs, one page each, with the consecutive pages of
// k.part starting at k.page: with one vectored read where the platform
// has one, and whatever that left unread — everything where it has none,
// the rest after a short read — with one ReadAt per buffer. A file that
// ends before the last page is an error naming the first page it lacks.
func (st *Store) readPages(k pageKey, bufs [][]byte, sc *readScratch) error {
	pf := st.parts[k.part]
	off := int64(k.page) * int64(st.pageSize)
	n, err := pf.vec.readv(bufs, off, sc)
	i := n / st.pageSize // the first buffer not yet full
	for from := n % st.pageSize; err == nil && i < len(bufs); from = 0 {
		if _, err = pf.f.ReadAt(bufs[i][from:], off+int64(i*st.pageSize+from)); err == nil {
			i++
		}
	}
	if err != nil {
		return fmt.Errorf("storage: read %v page %d: %w", k.part, k.page+uint32(i), err)
	}
	return nil
}

func (st *Store) writePage(k pageKey, buf []byte) error {
	if err := st.writeBarrier(); err != nil {
		return fmt.Errorf("storage: write %v page %d: log not durable: %w", k.part, k.page, err)
	}
	if _, err := st.parts[k.part].f.WriteAt(buf, int64(k.page)*int64(st.pageSize)); err != nil {
		return fmt.Errorf("storage: write %v page %d: %w", k.part, k.page, err)
	}
	st.writeMu.Lock()
	st.writeN++
	st.writeSeq[k] = st.writeN
	st.writeMu.Unlock()
	return nil
}

// TouchPage reads one page of a partition through the pool — the
// simulator's per-object quantum turned into a real page read. Reading
// past the current page count is a no-op (an empty partition has
// nothing to read).
func (st *Store) TouchPage(part txn.PartitionID, page uint32) error {
	pf, err := st.pf(part)
	if err != nil {
		return err
	}
	n := pf.numPages()
	if n == 0 {
		return nil
	}
	fr, err := st.poolOf(part).Get(pageKey{part, page % n}, false)
	if err != nil {
		return err
	}
	st.poolOf(part).Unpin(fr, false)
	return nil
}

// maxTuple is the largest tuple a fresh page can hold.
func (st *Store) maxTuple() int { return st.pageSize - pageHeaderLen - slotLen }

// Insert appends a tuple to the partition's heap: the last page if it
// fits and was allocated in this session, a freshly allocated page
// otherwise (see partFile.base). Callers mutating one
// partition concurrently must hold its scheduler lock; the store's own
// commit/redo paths additionally serialize on the partition op lock.
func (st *Store) Insert(part txn.PartitionID, tuple []byte) (RecordID, error) {
	pf, err := st.pf(part)
	if err != nil {
		return RecordID{}, err
	}
	pf.opMu.Lock()
	defer pf.opMu.Unlock()
	if len(tuple) > st.maxTuple() {
		return RecordID{}, fmt.Errorf("storage: tuple %d bytes exceeds page capacity %d", len(tuple), st.maxTuple())
	}
	pool := st.poolOf(part)
	n := pf.numPages()
	if n > pf.base {
		fr, err := pool.Get(pageKey{part, n - 1}, false)
		if err != nil {
			return RecordID{}, err
		}
		if slot, ok := fr.Page().Insert(tuple); ok {
			pool.Unpin(fr, true)
			return RecordID{Page: n - 1, Slot: slot}, nil
		}
		pool.Unpin(fr, false)
	}
	pf.mu.Lock()
	pageNo := pf.pages
	pf.pages++
	pf.mu.Unlock()
	fr, err := pool.Get(pageKey{part, pageNo}, true)
	if err != nil {
		return RecordID{}, err
	}
	slot, ok := fr.Page().Insert(tuple)
	pool.Unpin(fr, true)
	if !ok {
		return RecordID{}, fmt.Errorf("storage: tuple %d bytes does not fit an empty page", len(tuple))
	}
	return RecordID{Page: pageNo, Slot: slot}, nil
}

// Flush writes back every dirty page of every pool (no fsync — heap
// durability is the WAL's job, see the package comment).
func (st *Store) Flush() error {
	for _, p := range st.pools {
		if err := p.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// FlushPartition writes back the partition's dirty pages.
func (st *Store) FlushPartition(part txn.PartitionID) error {
	if _, err := st.pf(part); err != nil {
		return err
	}
	return st.poolOf(part).FlushPart(part)
}

// Stats sums the per-node pool counters.
func (st *Store) Stats() PoolStats {
	var s PoolStats
	for _, p := range st.pools {
		s.add(p.Stats())
	}
	return s
}

// PinnedFrames returns the number of currently pinned frames across all
// pools (zero whenever no scan or mutation is in flight — the pool
// accounting invariant the race tests assert).
func (st *Store) PinnedFrames() int {
	n := 0
	for _, p := range st.pools {
		n += p.Stats().Pinned
	}
	return n
}

// Close stops background work, flushes every pool, and closes the heap
// files.
func (st *Store) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.Quiesce()
	err := st.Flush()
	st.closeFiles()
	return err
}

func (st *Store) closeFiles() {
	for _, pf := range st.parts {
		if pf != nil && pf.f != nil {
			pf.f.Close()
		}
	}
}

// Crash simulates a SIGKILL mid-flush, the storage half of
// fault.KillFlushFrac: dirty pool pages simply vanish (they were never
// written), and because heap pages are never fsynced, the kernel is
// assumed to have completed only the oldest `frac` of the session's
// page writes — every younger written page is torn: its on-disk suffix
// beyond frac of the page is zeroed, as if the write reached the disk
// only partially. The files are then closed without any flush. The
// store is unusable afterwards; reopen with Open to recover.
func (st *Store) Crash(frac float64) error {
	if st.closed {
		return fmt.Errorf("storage: already closed")
	}
	st.closed = true
	st.Quiesce()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	st.writeMu.Lock()
	type wp struct {
		k   pageKey
		seq int
	}
	writes := make([]wp, 0, len(st.writeSeq))
	for k, seq := range st.writeSeq {
		writes = append(writes, wp{k, seq})
	}
	st.writeMu.Unlock()
	sort.Slice(writes, func(i, j int) bool { return writes[i].seq < writes[j].seq })
	keep := int(frac * float64(len(writes)))
	prefix := int(frac * float64(st.pageSize))
	if max := st.pageSize - 64; prefix > max {
		prefix = max
	}
	zeros := make([]byte, st.pageSize)
	for _, w := range writes[keep:] {
		_, err := st.parts[w.k.part].f.WriteAt(zeros[:st.pageSize-prefix],
			int64(w.k.page)*int64(st.pageSize)+int64(prefix))
		if err != nil {
			return fmt.Errorf("storage: crash tear: %w", err)
		}
	}
	st.closeFiles()
	return nil
}

package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"batsched/internal/event"
	"batsched/internal/obs"
	"batsched/internal/txn"
)

// memIO is an in-memory pageIO backend for pool-only tests.
type memIO struct {
	mu       sync.Mutex
	pages    map[pageKey][]byte
	reads    int // pages served
	calls    int // readPages calls
	writes   int
	pageSize int
}

func newMemIO(pageSize int) *memIO {
	return &memIO{pages: map[pageKey][]byte{}, pageSize: pageSize}
}

func (m *memIO) readPages(k pageKey, bufs [][]byte, _ *readScratch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	for i, buf := range bufs {
		src, ok := m.pages[pageKey{k.part, k.page + uint32(i)}]
		if !ok {
			return fmt.Errorf("memIO: no page %v", k)
		}
		m.reads++
		copy(buf, src)
	}
	return nil
}

func (m *memIO) writePage(k pageKey, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	m.pages[k] = append([]byte(nil), buf...)
	return nil
}

func (m *memIO) seed(k pageKey) {
	buf := make([]byte, m.pageSize)
	p := InitPage(buf, k.page)
	p.Insert(EncodeEffect(txn.ID(k.page), int(k.part), k.part, 32))
	p.Seal()
	m.mu.Lock()
	m.pages[k] = buf
	m.mu.Unlock()
}

// TestPoolPinAccounting checks that pins never go negative (Unpin of an
// unpinned frame panics) and that pinned counts track Get/Unpin pairs.
func TestPoolPinAccounting(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 4, 512)
	k := pageKey{0, 0}
	io.seed(k)
	f1, err := pool.Get(k, false)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := pool.Get(k, false)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("same key resolved to two frames")
	}
	if st := pool.Stats(); st.Pinned != 1 {
		t.Fatalf("Pinned=%d after double Get, want 1 frame", st.Pinned)
	}
	pool.Unpin(f1, false)
	pool.Unpin(f2, false)
	if st := pool.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned=%d after matching Unpins, want 0", st.Pinned)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned frame did not panic")
		}
	}()
	pool.Unpin(f1, false)
}

// TestPoolNoEvictionOfPinned pins every frame, then asks for one more
// page: the pool must serve it from a transient overflow frame —
// never by evicting a pinned frame.
func TestPoolNoEvictionOfPinned(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 4, 512)
	var held []*Frame
	for i := 0; i < 4; i++ {
		k := pageKey{0, uint32(i)}
		io.seed(k)
		f, err := pool.Get(k, false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	k := pageKey{0, 99}
	io.seed(k)
	ov, err := pool.Get(k, false)
	if err != nil {
		t.Fatalf("Get with every frame pinned: %v", err)
	}
	if !ov.transient {
		t.Fatal("expected a transient overflow frame with every pooled frame pinned")
	}
	// Every originally pinned frame must still hold its page.
	for i, f := range held {
		if !f.valid || f.key != (pageKey{0, uint32(i)}) || f.pins != 1 {
			t.Fatalf("frame %d was disturbed: %+v", i, f.key)
		}
	}
	pool.Unpin(ov, false)
	if got := pool.Stats().Overflows; got != 1 {
		t.Fatalf("Overflows = %d, want 1", got)
	}
	pool.Unpin(held[0], false)
	f2, err := pool.Get(k, false)
	if err != nil {
		t.Fatalf("Get still failing after an Unpin freed a frame: %v", err)
	}
	if f2.transient {
		t.Fatal("expected a pooled frame once a pin was released")
	}
}

// TestPoolOverflowDirtyWriteBack mutates a page through a transient
// overflow frame: the final Unpin must write the image back so the
// mutation is never lost, and a stale cached copy of the page must not
// survive to shadow it.
func TestPoolOverflowDirtyWriteBack(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 2, 512)
	ka, kb, kc := pageKey{0, 0}, pageKey{0, 1}, pageKey{0, 2}
	io.seed(ka)
	io.seed(kb)
	io.seed(kc)
	fa, _ := pool.Get(ka, false)
	fb, _ := pool.Get(kb, false)
	ov, err := pool.Get(kc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ov.transient {
		t.Fatal("expected a transient frame with both pooled frames pinned")
	}
	pg := ov.Page()
	if _, ok := pg.Insert([]byte("spilled")); !ok {
		t.Fatal("insert into overflow frame failed")
	}
	w0 := io.writes
	pool.Unpin(ov, true)
	if io.writes != w0+1 {
		t.Fatalf("expected the dirty overflow frame written back on Unpin, writes %d→%d", w0, io.writes)
	}
	pool.Unpin(fa, false)
	pool.Unpin(fb, false)
	fc, err := pool.Get(kc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(fc, false)
	found := false
	cp := fc.Page()
	for i := 0; i < cp.NumSlots(); i++ {
		if tup, ok := cp.Get(i); ok && string(tup) == "spilled" {
			found = true
		}
	}
	if !found {
		t.Fatal("overflow-frame mutation lost: re-read page lacks the inserted tuple")
	}
}

// TestPoolDirtyWriteBack checks that evicting a dirty frame writes the
// page back through the IO layer, and that a clean eviction does not.
func TestPoolDirtyWriteBack(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 2, 512)
	ka, kb, kc := pageKey{0, 0}, pageKey{0, 1}, pageKey{0, 2}
	io.seed(ka)
	io.seed(kb)
	io.seed(kc)
	fa, _ := pool.Get(ka, false)
	pg := fa.Page()
	pg.Insert([]byte("dirtied"))
	pool.Unpin(fa, true)
	fb, _ := pool.Get(kb, false)
	pool.Unpin(fb, false)
	w0 := io.writes
	fc, _ := pool.Get(kc, false) // evicts one of a/b
	pool.Unpin(fc, false)
	_, _ = pool.Get(ka, false) // touch a again — forces the other out too
	if io.writes != w0+1 {
		t.Fatalf("expected exactly 1 write-back for the dirty page, got %d", io.writes-w0)
	}
	// The written-back image must contain the dirtied tuple.
	io.mu.Lock()
	img := io.pages[ka]
	io.mu.Unlock()
	p, err := LoadPage(img)
	if err != nil {
		t.Fatalf("written-back page invalid: %v", err)
	}
	found := false
	for i := 0; i < p.NumSlots(); i++ {
		if tup, ok := p.Get(i); ok && string(tup) == "dirtied" {
			found = true
		}
	}
	if !found {
		t.Fatal("write-back lost the dirty tuple")
	}
}

// TestPoolHitRateConsistency checks the pool's own counters: hits +
// misses == total Gets, misses == backend reads, and Stats().HitRate()
// agrees with the raw counts.
func TestPoolHitRateConsistency(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 8, 512)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		io.seed(pageKey{0, uint32(i)})
	}
	gets := 0
	for i := 0; i < 2000; i++ {
		k := pageKey{0, uint32(rng.Intn(16))}
		f, err := pool.Get(k, false)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, false)
		gets++
	}
	st := pool.Stats()
	if st.Hits+st.Misses != uint64(gets) {
		t.Fatalf("hits(%d)+misses(%d) != gets(%d)", st.Hits, st.Misses, gets)
	}
	if int(st.Misses) != io.reads {
		t.Fatalf("misses=%d but backend reads=%d", st.Misses, io.reads)
	}
	if st.BytesRead != st.Misses*512 {
		t.Fatalf("BytesRead=%d, want misses*pageSize=%d", st.BytesRead, st.Misses*512)
	}
	want := float64(st.Hits) / float64(st.Hits+st.Misses)
	if got := st.HitRate(); got != want {
		t.Fatalf("HitRate()=%v, want %v", got, want)
	}
	if st.HitRate() <= 0.3 { // 8 frames over 16 hot pages: hits must happen
		t.Fatalf("suspiciously low hit rate %v for 8-frame pool over 16 pages", st.HitRate())
	}
}

// TestPoolConcurrentChurn hammers one pool from many goroutines under
// -race: concurrent Get/Unpin with random dirtying, then asserts pins
// drained to zero and the counters are coherent.
func TestPoolConcurrentChurn(t *testing.T) {
	io := newMemIO(512)
	pool := newPool(io, 8, 512)
	const npages = 32
	for i := 0; i < npages; i++ {
		io.seed(pageKey{txn.PartitionID(i % 4), uint32(i / 4)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 800; i++ {
				n := rng.Intn(npages)
				k := pageKey{txn.PartitionID(n % 4), uint32(n / 4)}
				f, err := pool.Get(k, false)
				if err != nil {
					continue // pool momentarily exhausted by peers' pins
				}
				// Marking dirty is enough to drive write-back; the bytes stay
				// untouched because a pin does not exclude another pinner —
				// writers are serialized by the scheduler's locks, not the pool.
				pool.Unpin(f, rng.Intn(4) == 0)
			}
		}(int64(g))
	}
	wg.Wait()
	st := pool.Stats()
	if st.Pinned != 0 {
		t.Fatalf("pins leaked: %d frames still pinned", st.Pinned)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no pool activity recorded")
	}
	if int(st.Misses) != io.reads {
		t.Fatalf("misses=%d, backend reads=%d", st.Misses, io.reads)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
}

// TestPoolAutoStripes pins down the stripe-count heuristic: tiny pools
// collapse to a single latch (the eviction tests above depend on that),
// production-sized pools spread to the cap.
func TestPoolAutoStripes(t *testing.T) {
	for _, c := range []struct{ frames, want int }{
		{2, 1}, {4, 1}, {16, 1}, {64, 1}, {127, 1}, {128, 2}, {256, 4}, {512, 8}, {1024, 16}, {4096, 16},
	} {
		if got := autoStripes(c.frames); got != c.want {
			t.Errorf("autoStripes(%d)=%d, want %d", c.frames, got, c.want)
		}
	}
	// Explicit stripe counts round down to a power of two and never
	// leave a stripe with fewer than two frames.
	if p := newPoolStriped(newMemIO(512), 8, 512, 7); len(p.stripes) != 4 {
		t.Errorf("7 stripes over 8 frames → %d, want 4 (pow2, ≥2 frames each)", len(p.stripes))
	}
	if p := newPoolStriped(newMemIO(512), 8, 512, 64); len(p.stripes) != 4 {
		t.Errorf("64 stripes over 8 frames → %d, want 4", len(p.stripes))
	}
	if p := newPoolStriped(newMemIO(512), 64, 512, 0); len(p.stripes) != 1 {
		t.Errorf("0 stripes → %d, want 1", len(p.stripes))
	}
}

// TestPoolStripeContention runs N goroutines scanning disjoint
// partitions through a striped pool under -race, with a concurrent
// Stats reader: traffic must spread across stripes (per-stripe
// counters), the lock-free Stats aggregation must agree with the
// per-stripe sum, and no pin may leak. Scanners of different partitions
// must not serialize on a single latch — the per-stripe counters are
// the witness that they ran on separate latch domains.
func TestPoolStripeContention(t *testing.T) {
	io := newMemIO(512)
	pool := newPoolStriped(io, 64, 512, 8)
	if got := pool.Stats().Stripes; got != 8 {
		t.Fatalf("Stripes=%d, want 8", got)
	}
	const workers = 8
	const pagesPerPart = 16
	for w := 0; w < workers; w++ {
		for pg := 0; pg < pagesPerPart; pg++ {
			io.seed(pageKey{txn.PartitionID(w), uint32(pg)})
		}
	}
	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() { // Stats must be race-clean mid-churn: no latch taken
		defer statsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := pool.Stats()
				if s.Pinned < 0 || s.Pinned > 64 {
					panic(fmt.Sprintf("impossible pinned count %d", s.Pinned))
				}
				_ = pool.StripeStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part txn.PartitionID) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for pg := 0; pg < pagesPerPart; pg++ {
					f, err := pool.Get(pageKey{part, uint32(pg)}, false)
					if err != nil {
						continue // stripe momentarily exhausted by peers
					}
					pool.Unpin(f, false)
				}
			}
		}(txn.PartitionID(w))
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()

	per := pool.StripeStats()
	active := 0
	var sum PoolStats
	for _, s := range per {
		if s.Hits+s.Misses > 0 {
			active++
		}
		sum.add(s)
	}
	if active < 2 {
		t.Fatalf("traffic landed on %d of %d stripes — scans of disjoint partitions serialized on one latch", active, len(per))
	}
	total := pool.Stats()
	if total.Hits != sum.Hits || total.Misses != sum.Misses || total.Evictions != sum.Evictions {
		t.Fatalf("Stats() aggregate %d/%d/%d diverges from per-stripe sum %d/%d/%d",
			total.Hits, total.Misses, total.Evictions, sum.Hits, sum.Misses, sum.Evictions)
	}
	if total.Pinned != 0 {
		t.Fatalf("pins leaked: %d", total.Pinned)
	}
	if int(total.Misses) != io.reads {
		t.Fatalf("misses=%d, backend reads=%d", total.Misses, io.reads)
	}
}

// recordObs keeps every event it observes.
type recordObs []obs.Event

func (r *recordObs) Observe(e obs.Event) { *r = append(*r, e) }

// TestPoolEvents: the bound observer sees each page event with its kind,
// op, partition, bytes, label and clock — a miss, a hit, a dirty
// victim's write-back and eviction, a run's reads, a clean eviction —
// and nothing once unbound.
func TestPoolEvents(t *testing.T) {
	st, _ := openOneStripe(t, t.TempDir(), 2, 4)
	defer st.Close()
	fillPages(t, st, 0, 4)
	if _, err := st.Insert(1, []byte("p1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	coldPool(st, st, 4)
	var rec recordObs
	st.Bind(&rec, "L", func() event.Time { return 7 })
	ev := func(kind obs.Kind, op string, part txn.PartitionID, bytes int) obs.Event {
		return obs.Event{Kind: kind, At: 7, Sched: "L", Part: part, Op: op, Batch: bytes}
	}
	read := func(op string, part txn.PartitionID, bytes int) obs.Event {
		return ev(obs.KindPageRead, op, part, bytes)
	}

	if err := st.TouchPage(1, 0); err != nil {
		t.Fatal(err)
	}
	fr, err := st.pool.Get(pageKey{1, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	st.pool.Unpin(fr, true)
	for i := 0; i < 2; i++ { // a cold run evicting the dirty page, then a warm one
		if _, err := st.ScanCount(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.TouchPage(1, 0); err != nil {
		t.Fatal(err)
	}
	want := []obs.Event{
		read("miss", 1, 512), read("hit", 1, 0),
		ev(obs.KindPageWrite, "", 1, 512), ev(obs.KindPageEvict, "dirty", 1, 0),
		read("miss", 0, 512), read("miss", 0, 512), read("miss", 0, 512), read("miss", 0, 512),
		read("hit", 0, 0), read("hit", 0, 0), read("hit", 0, 0), read("hit", 0, 0),
		ev(obs.KindPageEvict, "clean", 0, 0), read("miss", 1, 512),
	}
	if !reflect.DeepEqual([]obs.Event(rec), want) {
		t.Fatalf("page events\n got %+v\nwant %+v", rec, want)
	}

	st.Bind(nil, "", nil)
	if err := st.TouchPage(1, 0); err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(want) {
		t.Fatalf("%d events after Bind(nil)", len(rec)-len(want))
	}
}

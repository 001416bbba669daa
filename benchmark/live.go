package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/live"
	"batsched/internal/modelcheck"
	"batsched/internal/obs"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

// Fixed controller configuration, identical on both sides of any
// comparison (see README.md).
const (
	retryDelay  = time.Millisecond
	flushEvery  = 25 * time.Millisecond
	keepTime    = 50
	crashFrac   = 0.5
	preloadBase = txn.ID(1) << 40 // preload tuples carry ids no transaction uses
)

// values is one repetition's measurements by metric name.
type values map[string]float64

// repMode selects what one repetition of a live workload adds to the
// plain closed loop.
type repMode struct {
	traced   bool // drive the lifecycle call by call and record spans
	shards   int  // WithShards value; 0 or 1 = one shard
	observer bool // attach an obs.Metrics observer
	quick    bool
}

// rep is the outcome of one repetition.
type rep struct {
	vals      values
	trace     values // span metrics of a traced repetition
	timedS    float64
	attempted int
	failed    int
	problems  []string
	spans     *recorder // traced repetitions only
}

func (r *rep) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// sample is one Run call's latency, tagged with its ticket so that it
// can be assigned to a slice of the timed region.
type sample struct {
	ticket int32
	ns     int64
}

// client is one closed-loop caller: it owns its RNG, its latency
// samples and, when contents are checked afterwards, the transactions
// it saw acknowledged.
type client struct {
	rng      *rand.Rand
	lat      []sample
	genNS    int64
	failed   int
	firstErr error
	keepAcks bool
	acks     []*txn.T
	cur      *txn.T
	scratch  spanRec // traced repetitions: where unsampled transactions record
}

// unitObjects reports a step's declared cost the way the paper's §3.1
// object messages arrive: one object at a time, then the fraction left.
func unitObjects(cost float64, report func(objects float64)) {
	for ; cost >= 1; cost-- {
		report(1)
	}
	if cost > 0 {
		report(cost)
	}
}

// work is the Run callback.
func (c *client) work(step int, p live.Progress) error {
	unitObjects(c.cur.Steps[step].Cost, p)
	return nil
}

func (c *client) done(t *txn.T, err error) {
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	if c.keepAcks {
		c.acks = append(c.acks, t)
	}
}

// stack is everything one repetition builds and must release.
type stack struct {
	dir   string
	store *storage.Store
	log   *wal.Log
	ctl   *live.Controller
	agg   *schedAgg // traced repetitions only
}

func (s *stack) close() {
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.log != nil {
		s.log.Close() // after the drill's Crash this fails, harmlessly
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

func preloadKey(p txn.PartitionID, i int) txn.ID {
	return preloadBase + txn.ID(int(p)*1_000_000+i)
}

func openStore(dir string, w *liveSpec) (*storage.Store, error) {
	return storage.Open(dir, w.parts, storage.WithPoolFrames(w.frames), storage.WithBackgroundFlush(flushEvery))
}

// openPreloaded fills every partition with w.preload 64-byte tuples and
// reopens the store: heap pages are never fsynced, so Store.Crash may
// tear any page written in the current session, and the preload is
// data that was durable before the benchmark's session began. The
// reopened pool starts cold.
func openPreloaded(dir string, w *liveSpec) (*storage.Store, error) {
	st, err := openStore(dir, w)
	if err != nil {
		return nil, err
	}
	for p := 0; p < w.parts; p++ {
		part := txn.PartitionID(p)
		for i := 0; i < w.preload; i++ {
			if _, err := st.Insert(part, storage.EncodeEffect(preloadKey(part, i), 0, part, 64)); err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return openStore(dir, w)
}

// build opens storage (preloaded), the WAL and the controller in a
// fresh directory under root.
func build(w *liveSpec, root string, mode repMode, rec *recorder) (*stack, error) {
	dir, err := os.MkdirTemp(root, "rep-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	opts := []live.Option{live.WithShards(mode.shards), live.WithRetryDelay(retryDelay)}
	if w.preload > 0 {
		st, err := openPreloaded(filepath.Join(dir, "heap"), w)
		if err != nil {
			s.close()
			return nil, err
		}
		s.store = st
		opts = append(opts, live.WithStorage(st))
	}
	if w.wal {
		l, err := wal.Open(filepath.Join(dir, "wal"), 1)
		if err != nil {
			s.close()
			return nil, err
		}
		s.log = l
		opts = append(opts, live.WithWALLog(l))
	}
	if mode.observer {
		opts = append(opts, live.WithObserver(obs.NewMetrics()))
	}
	factory := w.sched
	if mode.traced {
		s.agg = &schedAgg{}
		factory = timedFactory(factory, s.agg, rec)
	}
	s.ctl = live.New(factory, sched.Costs{KeepTime: keepTime}, opts...)
	return s, nil
}

// slices is how many equal-count slices a timed region is cut into.
// On the sandbox, bursts of interference lasting 0.3 to 1 s slow a
// CPU-bound loop by up to half about a third of the time; a slice is
// short enough to fall wholly inside or outside one, and throughput and
// latency are read from the faster half of the slices only (see
// cleanHalf).
const slices = 20

// closedLoop runs tickets base+1..base+n through ctl: each client claims
// the next ticket from one counter, draws that transaction from its own
// RNG and runs it to completion before claiming another. Generation
// time is kept out of the latency samples. It returns the wall time and
// the time each slice's first ticket was claimed, plus the end.
func closedLoop(s *stack, gen workload.Generator, clients []*client, base, n int, rec *recorder) (time.Duration, []time.Duration) {
	per := sliceLen(n)
	bounds := make([]time.Duration, n/per+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			ctx := context.Background()
			work := c.work
			t0 := time.Now()
			for {
				k := int(next.Add(1))
				if k > n {
					return
				}
				if (k-1)%per == 0 && (k-1)/per < len(bounds)-1 {
					bounds[(k-1)/per] = t0.Sub(start) // one writer per element
				}
				t := gen.Next(txn.ID(base+k), c.rng)
				c.cur = t
				t1 := time.Now()
				var err error
				if rec != nil {
					err = tracedRun(ctx, s, t, rec, &c.scratch)
				} else {
					err = s.ctl.Run(ctx, t, work)
				}
				t2 := time.Now()
				c.genNS += int64(t1.Sub(t0))
				c.lat = append(c.lat, sample{int32(k), int64(t2.Sub(t1))})
				c.done(t, err)
				t0 = t2
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	bounds[len(bounds)-1] = wall
	return wall, bounds
}

// latencyMetrics reports the median, the mean of the slowest 5 % and
// the 99th percentile of sorted latencies in ns. The tail mean is the
// bounded end-to-end metric: on uniform-bare about 1 % of Run calls meet
// lock contention, so the 99th percentile sits on the edge between two
// modes and moves by half between runs, while the tail mean moves
// smoothly.
func latencyMetrics(v values, sorted []float64) {
	v["lat_p50_ms"] = quantile(sorted, 0.50) / 1e6
	v["lat_p99_ms"] = quantile(sorted, 0.99) / 1e6
	tail := sorted[len(sorted)-(len(sorted)+19)/20:]
	var sum float64
	for _, x := range tail {
		sum += x
	}
	v["lat_tail_ms"] = sum / float64(len(tail)) / 1e6
}

// sliceLen is the ticket count of one slice of an n-ticket region; the
// last slice also takes the remainder.
func sliceLen(n int) int {
	if n < slices {
		return 1
	}
	return n / slices
}

// cleanHalf ranks the slices by throughput, keeps the faster half and
// returns its throughput in tickets per second with the latencies of
// the tickets in it, sorted.
func cleanHalf(n int, bounds []time.Duration, clients []*client) (perSec float64, lat []float64) {
	per := sliceLen(n)
	nsl := len(bounds) - 1
	count := func(i int) int {
		if i == nsl-1 {
			return n - i*per
		}
		return per
	}
	order := make([]int, nsl)
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(count(i)) / (bounds[i+1] - bounds[i]).Seconds() }
	sort.Slice(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	clean := make([]bool, nsl)
	var tickets int
	var dur time.Duration
	for _, i := range order[:(nsl+1)/2] {
		clean[i] = true
		tickets += count(i)
		dur += bounds[i+1] - bounds[i]
	}
	for _, c := range clients {
		for _, sm := range c.lat {
			i := (int(sm.ticket) - 1) / per
			if i >= nsl {
				i = nsl - 1
			}
			if clean[i] {
				lat = append(lat, float64(sm.ns))
			}
		}
	}
	sort.Float64s(lat)
	return float64(tickets) / dur.Seconds(), lat
}

// liveRep runs one repetition: build, warm up at n/10 through the same
// controller, time n transactions, check every output, and (with a WAL)
// crash and recover.
func liveRep(w *liveSpec, root string, seed int64, mode repMode) (*rep, error) {
	n := w.n
	if mode.quick {
		n /= 20
	}
	warm := n / 10
	mpl := w.mpl
	if mpl == 0 {
		mpl = runtime.GOMAXPROCS(0)
	}
	r := &rep{vals: values{}}
	if mode.traced {
		r.trace = values{}
		r.spans = newRecorder(warm, n)
	}

	t0 := time.Now()
	s, err := build(w, root, mode, r.spans)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.vals["bench.build_s"] = time.Since(t0).Seconds()

	gen := w.gen()
	clients := make([]*client, mpl)
	for i := range clients {
		c := &client{
			rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			lat:      make([]sample, 0, 2*(n+warm)/mpl+1024),
			keepAcks: w.preload > 0 || w.wal,
		}
		if c.keepAcks {
			c.acks = make([]*txn.T, 0, cap(c.lat))
		}
		clients[i] = c
	}
	closedLoop(s, gen, clients, 0, warm, r.spans)
	for _, c := range clients {
		c.lat = c.lat[:0]
		c.genNS = 0
	}
	runtime.GC()
	r.vals["setup_s"] = time.Since(t0).Seconds()

	before := snapshot(s)
	wall, bounds := closedLoop(s, gen, clients, warm, n, r.spans)
	after := snapshot(s)

	r.timedS = wall.Seconds()
	r.attempted = warm + n
	var genNS int64
	var acks []*txn.T
	for _, c := range clients {
		r.failed += c.failed
		if c.firstErr != nil && len(r.problems) == 0 {
			r.problemf("Run failed: %v", c.firstErr)
		}
		genNS += c.genNS
		acks = append(acks, c.acks...)
	}
	commits := float64(after.ctl.Committed - before.ctl.Committed)
	if commits == 0 {
		r.problemf("no transaction committed")
		return r, nil
	}
	perSec, lat := cleanHalf(n, bounds, clients)
	r.vals["txn_per_s"] = perSec * commits / float64(n)
	latencyMetrics(r.vals, lat)
	r.vals["bench.raw_txn_per_s"] = commits / wall.Seconds()
	r.vals["alloc_b_per_txn"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / commits
	r.vals["failed_share"] = float64(r.failed) / float64(r.attempted)
	r.vals["bench.gen_share"] = float64(genNS) / (float64(mpl) * float64(wall))
	counterMetrics(r.vals, before, after, commits)
	if s.log != nil {
		if fi, err := os.Stat(filepath.Join(s.dir, "wal", "node-0000.wal")); err == nil {
			r.vals["wal.bytes_per_txn"] = float64(fi.Size()) / float64(after.ctl.Committed)
		}
	}
	if mode.traced {
		r.spans.metrics(r.trace, s.agg, s.store != nil, wall, commits)
	}

	checkController(r, s)
	s.ctl.Close()
	switch {
	case s.log != nil:
		// Crash at once: a contents check first would give the background
		// flusher time to leave the drill nothing to redo.
		crashDrill(r, s, w, acks)
	case s.store != nil:
		checkContents(r, s.store, w, acks, "after the run")
	}
	return r, nil
}

// snap is the counter state around a timed region.
type snap struct {
	ctl  live.Stats
	wal  wal.Stats
	pool storage.PoolStats
	mem  runtime.MemStats
}

func snapshot(s *stack) snap {
	var sn snap
	sn.ctl = s.ctl.Stats()
	sn.wal, _ = s.ctl.WALStats()
	if s.store != nil {
		sn.pool = s.store.Stats()
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// counterMetrics derives the per-layer counters the layers keep
// themselves, as deltas over the timed region per committed transaction.
func counterMetrics(v values, b, a snap, commits float64) {
	v["live.retries_per_txn"] = float64(a.ctl.Retries-b.ctl.Retries) / commits
	v["live.grants_per_txn"] = float64(a.ctl.Granted-b.ctl.Granted) / commits
	v["live.allocs_per_txn"] = float64(a.mem.Mallocs-b.mem.Mallocs) / commits

	appends := float64(a.wal.Appends - b.wal.Appends)
	syncs := float64(a.wal.Syncs - b.wal.Syncs)
	v["wal.appends_per_txn"] = appends / commits
	v["wal.syncs_per_txn"] = syncs / commits
	if syncs > 0 {
		v["wal.group_batch_mean"] = float64(a.wal.SyncedRecords-b.wal.SyncedRecords) / syncs
	}
	v["wal.max_batch"] = float64(a.wal.MaxBatch)

	hits := float64(a.pool.Hits - b.pool.Hits)
	misses := float64(a.pool.Misses - b.pool.Misses)
	v["storage.pages_per_txn"] = (hits + misses) / commits
	if hits+misses > 0 {
		v["storage.hit_rate"] = hits / (hits + misses)
	}
	v["storage.evictions_per_txn"] = float64(a.pool.Evictions-b.pool.Evictions) / commits
	v["storage.bytes_read_per_txn"] = float64(a.pool.BytesRead-b.pool.BytesRead) / commits
	v["storage.prefetches_per_txn"] = float64(a.pool.Prefetches-b.pool.Prefetches) / commits
	v["storage.bytes_written_per_txn"] = float64(a.pool.BytesWritten-b.pool.BytesWritten) / commits
	v["storage.flushes_per_ktxn"] = 1000 * float64(a.pool.Flushes-b.pool.Flushes) / commits
}

// checkController is the gate every repetition passes: scheduler
// invariants clean, every attempted transaction acknowledged and
// counted, nothing left admitted.
func checkController(r *rep, s *stack) {
	if err := s.ctl.CheckInvariants(); err != nil {
		r.problemf("CheckInvariants: %v", err)
	}
	st := s.ctl.Stats()
	if acked := r.attempted - r.failed; int(st.Committed) != acked {
		r.problemf("Stats.Committed = %d, acknowledged %d", st.Committed, acked)
	}
	if st.Active != 0 {
		r.problemf("Stats.Active = %d after the run", st.Active)
	}
	if err := s.ctl.StorageErr(); err != nil {
		r.problemf("StorageErr: %v", err)
	}
}

// expectedEffects maps every partition to the effect keys the
// acknowledged transactions' write steps must have left in it.
func expectedEffects(acks []*txn.T) map[txn.PartitionID]map[storage.EffectKey]bool {
	want := make(map[txn.PartitionID]map[storage.EffectKey]bool)
	for _, t := range acks {
		for i, s := range t.Steps {
			if s.Mode != txn.Write {
				continue
			}
			if want[s.Part] == nil {
				want[s.Part] = make(map[storage.EffectKey]bool)
			}
			want[s.Part][storage.EffectKey{Txn: t.ID, Step: i}] = true
		}
	}
	return want
}

// checkContents verifies that every partition holds exactly its preload
// tuples plus the effect tuples of the acknowledged commits' write
// steps. It returns the acknowledged transactions with every effect
// readable.
func checkContents(r *rep, st *storage.Store, w *liveSpec, acks []*txn.T, when string) int {
	want := expectedEffects(acks)
	missing := make(map[txn.ID]bool)
	for p := 0; p < w.parts; p++ {
		part := txn.PartitionID(p)
		keys, err := st.Keys(part)
		if err != nil {
			r.problemf("%s: Keys(%v): %v", when, part, err)
			return 0
		}
		for i := 0; i < w.preload; i++ {
			if !keys[storage.EffectKey{Txn: preloadKey(part, i)}] {
				r.problemf("%s: %v lost preload tuple %d", when, part, i)
				return 0
			}
		}
		present := 0
		for k := range want[part] {
			if keys[k] {
				present++
			} else {
				missing[k.Txn] = true
			}
		}
		if extra := len(keys) - w.preload - present; extra != 0 {
			r.problemf("%s: %v holds %d tuples no acknowledged commit wrote", when, part, extra)
		}
	}
	if len(missing) > 0 {
		r.problemf("%s: %d acknowledged commits have an unreadable effect tuple", when, len(missing))
	}
	return len(acks) - len(missing)
}

// crashDrill discards the unflushed bytes of WAL and store, restarts
// from the files alone and checks that the recovered committed set is
// the acknowledged set with every effect tuple readable.
func crashDrill(r *rep, s *stack, w *liveSpec, acks []*txn.T) {
	s.log.Crash(crashFrac)
	if err := s.store.Crash(crashFrac); err != nil {
		r.problemf("Store.Crash: %v", err)
		return
	}
	walDir, heapDir := filepath.Join(s.dir, "wal"), filepath.Join(s.dir, "heap")

	t0 := time.Now()
	st2, err := openStore(heapDir, w)
	if err != nil {
		r.problemf("reopen store: %v", err)
		return
	}
	defer st2.Close()
	scans, err := wal.Scan(walDir)
	if err != nil {
		r.problemf("wal.Scan: %v", err)
		return
	}
	var redoErr atomic.Value
	rec, err := wal.Replay(scans, runtime.GOMAXPROCS(0), func(b wal.Record, _ int) {
		if err := st2.Redo(b); err != nil {
			redoErr.CompareAndSwap(nil, err)
		}
	})
	if err != nil {
		r.problemf("wal.Replay: %v", err)
		return
	}
	if err, _ := redoErr.Load().(error); err != nil {
		r.problemf("Store.Redo: %v", err)
	}
	if err := st2.Flush(); err != nil {
		r.problemf("flush after redo: %v", err)
	}
	redo := time.Since(t0)

	t1 := time.Now()
	ctl2, rec2, err := live.Recover(walDir, w.sched, sched.Costs{KeepTime: keepTime},
		live.WithRetryDelay(retryDelay), live.WithStorage(st2))
	if err != nil {
		r.problemf("live.Recover: %v", err)
		return
	}
	replay := time.Since(t1)
	ctl2.Close()
	r.vals["storage.redo_s"] = redo.Seconds()
	r.vals["wal.replay_s"] = replay.Seconds()
	r.vals["recover_s"] = (redo + replay).Seconds()

	if err := modelcheck.VerifyRecovery(scans, rec); err != nil {
		r.problemf("VerifyRecovery: %v", err)
	}
	acked := make(map[txn.ID]bool, len(acks))
	for _, t := range acks {
		acked[t.ID] = true
	}
	durable := 0
	for _, id := range rec.Committed {
		if !acked[id] {
			r.problemf("%v recovered as committed but never acknowledged", id)
			break
		}
		durable++
	}
	if len(rec2.Committed) != len(rec.Committed) {
		r.problemf("live.Recover committed %d, wal.Replay %d", len(rec2.Committed), len(rec.Committed))
	}
	readable := checkContents(r, st2, w, acks, "after recovery")
	if durable < readable {
		readable = durable
	}
	share := float64(readable) / float64(len(acks))
	r.vals["recovered_share"] = share
	if share != 1 {
		r.problemf("recovered_share = %g, want 1 (%d durable of %d acknowledged)", share, durable, len(acks))
	}
}

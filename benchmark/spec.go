package main

import (
	"math/rand"

	"batsched/internal/core/sched"
	"batsched/internal/txn"
	"batsched/internal/workload"
)

// metric is one named measurement. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd lists what a user of the stack sees. Every workload reports
// every one of them: on sim-paper a "transaction" is a simulated commit
// and a "Run call" is one sim.Run grid cell, on the live workloads they
// are live.Controller.Run calls.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_tail_ms", "ms", "lower", 0.25},
	{"alloc_b_per_txn", "B", "lower", 0.10},
}

// perLayer lists the single-layer measurements, prefix = module. A
// value of 0 means the workload does not exercise that layer (no WAL,
// no storage, not the simulator) or the extra run is not made on it.
var perLayer = []metric{
	{"live.admit_us_p50", "us", "lower", 0},
	{"live.admit_us_p99", "us", "lower", 0},
	{"live.acquire_us_p50", "us", "lower", 0},
	{"live.acquire_us_p99", "us", "lower", 0},
	{"live.commit_us_p50", "us", "lower", 0},
	{"live.commit_us_p99", "us", "lower", 0},
	{"live.objectdone_us_mean", "us", "lower", 0},
	{"live.wait_share", "share", "lower", 0},
	{"live.retries_per_txn", "count", "lower", 0},
	{"live.grants_per_txn", "count", "lower", 0},
	{"live.allocs_per_txn", "count", "lower", 0},
	{"live.txn_per_s_shards16", "1/s", "higher", 0},

	{"sched.admit_us_mean", "us", "lower", 0},
	{"sched.request_us_mean", "us", "lower", 0},
	{"sched.commit_us_mean", "us", "lower", 0},
	{"sched.calls_per_txn", "count", "lower", 0},
	{"sched.grant_ratio", "share", "higher", 0},
	{"sched.busy_share", "share", "lower", 0},
	{"estimate.e_ns", "ns", "lower", 0},
	{"wtpg.critpath_ns", "ns", "lower", 0},
	{"chainopt.solve_us", "us", "lower", 0},

	{"wal.appends_per_txn", "count", "lower", 0},
	{"wal.syncs_per_txn", "count", "lower", 0},
	{"wal.group_batch_mean", "count", "higher", 0},
	{"wal.max_batch", "count", "higher", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.force_us_p50", "us", "lower", 0},
	{"wal.replay_s", "s", "lower", 0},

	{"storage.scan_us_p50", "us", "lower", 0},
	{"storage.scan_us_p99", "us", "lower", 0},
	{"storage.pages_per_txn", "count", "lower", 0},
	{"storage.hit_rate", "share", "higher", 0},
	{"storage.evictions_per_txn", "count", "lower", 0},
	{"storage.bytes_read_per_txn", "B", "lower", 0},
	{"storage.prefetches_per_txn", "count", "higher", 0},
	{"storage.bytes_written_per_txn", "B", "lower", 0},
	{"storage.flushes_per_ktxn", "count", "lower", 0},
	{"storage.redo_s", "s", "lower", 0},

	{"sim.wall_s.ASL", "s", "lower", 0},
	{"sim.wall_s.C2PL", "s", "lower", 0},
	{"sim.wall_s.CHAIN", "s", "lower", 0},
	{"sim.wall_s.K2", "s", "lower", 0},
	{"sim.cell_ms_p50", "ms", "lower", 0},
	{"sim.allocs_per_cell", "count", "lower", 0},
	{"sim_tps_asl", "1/s", "higher", 0},
	{"sim_tps_c2pl", "1/s", "higher", 0},
	{"sim_tps_chain", "1/s", "higher", 0},
	{"sim_tps_k2", "1/s", "higher", 0},

	{"lat_p99_ms", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"recovered_share", "share", "higher", 0},
	{"failed_share", "share", "lower", 0},

	{"obs.metrics_overhead_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.span_coverage", "share", "higher", 0},
	{"bench.raw_txn_per_s", "1/s", "higher", 0},
	{"bench.gen_share", "share", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
}

// liveSpec is one closed-loop workload against live.Controller.
type liveSpec struct {
	sched sched.Factory
	gen   func() workload.Generator
	parts int // partitions the generator touches
	mpl   int // client goroutines; 0 = GOMAXPROCS
	n     int // transactions per timed repetition

	wal     bool
	preload int // tuples per partition; 0 = no storage
	frames  int // buffer-pool frames

	shards16 bool // also re-run once with WithShards(16)
	obsCost  bool // also re-run once with an obs.Metrics observer
}

// workloadSpec is one named workload: live is nil for the simulator
// grid.
type workloadSpec struct {
	name string
	why  string
	live *liveSpec
}

// The counts are a third of the issue's sizing (2.5 M / 600 k / 150 k /
// 30 k / 6 k) so that five repetitions fit the driver's ten measured
// seconds; the ratios between workloads are the issue's.
var workloads = []workloadSpec{
	{
		name: "uniform-bare",
		why:  "C2PL over 4096 cold partitions, no WAL or storage: almost no conflicts, so the cost is internal/live's own hot path; the bypass workload for scheduler, waiting, WAL and storage changes",
		live: &liveSpec{sched: sched.C2PLFactory(), gen: uniformGen, parts: 4096, n: 800000, shards16: true},
	},
	{
		name: "hot-bare-k2",
		why:  "K2 on the paper's Pattern2 hot set at MPL 16, steps do no I/O: wall time is E(q) decisions plus live blocking, wake-ups and retries",
		live: &liveSpec{sched: sched.KWTPGFactory(2), gen: hotGen, parts: 16, mpl: 16, n: 200000, obsCost: true},
	},
	{
		name: "hot-bare-chain",
		why:  "the same contention through CHAIN: chain-form admission aborts and the chainopt DP dominate, so a gain for one paper scheduler that costs the other shows",
		live: &liveSpec{sched: sched.ChainFactory(), gen: hotGen, parts: 16, mpl: 16, n: 50000},
	},
	{
		name: "hot-full-k2",
		why:  "hot-bare-k2 plus WAL fsync and a cached heap store: locks are held across a real scan and the commit force, and every repetition ends with a crash-and-recover drill",
		live: &liveSpec{sched: sched.KWTPGFactory(2), gen: hotGen, parts: 16, mpl: 16, n: 10000, wal: true, preload: 2000, frames: 4096},
	},
	{
		name: "scan-cold",
		why:  "K2, read-mostly scans over 64 partitions about eleven times the buffer pool: misses, evictions, prefetch and pread dominate, the opposite use of storage from hot-full-k2",
		live: &liveSpec{sched: sched.KWTPGFactory(2), gen: scanGen, parts: 64, mpl: 4, n: 2000, preload: 20000, frames: 1024},
	},
	{
		name: "sim-paper",
		why:  "a fixed grid of sim.Run cells (Experiments 1 and 2 x ASL, C2PL, CHAIN, K2) on one goroutine: the researcher's path, and the scheduling behaviour as a pure function of the seed",
	},
}

// uniformPair is the BenchmarkLiveThroughput mix: 90 % one write step,
// 10 % a second write step half the partition space away.
type uniformPair struct{ parts int }

func (uniformPair) Name() string { return "uniform-pair" }

func (g uniformPair) Next(id txn.ID, rng *rand.Rand) *txn.T {
	p := txn.PartitionID(rng.Intn(g.parts))
	steps := []txn.Step{{Mode: txn.Write, Part: p, Cost: 1}}
	if rng.Float64() < 0.10 {
		far := (p + txn.PartitionID(g.parts/2)) % txn.PartitionID(g.parts)
		steps = append(steps, txn.Step{Mode: txn.Write, Part: far, Cost: 1})
	}
	return txn.New(id, steps)
}

func uniformGen() workload.Generator { return uniformPair{parts: 4096} }

func hotGen() workload.Generator {
	return workload.Experiment2(workload.HotSetLayout{NumReadOnly: 8, NumHots: 8})
}

var scanPattern = txn.MustParsePattern("scan", "r(A:4) -> r(B:4) -> w(C:1)")

func scanGen() workload.Generator { return workload.UniformPattern(scanPattern, 64) }

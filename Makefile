# Tier-1 check (ROADMAP.md) plus static analysis and the race detector
# on the concurrency-sensitive packages.

GO ?= go

.PHONY: build test bench bench-smoke epoch-smoke chaos chaos-nodes chaos-restart verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench is the repo's one benchmark (benchmark/README.md): six named
# workloads, five bounded end-to-end metrics and a per-layer budget,
# declared in BENCHMARK.json.
bench:
	$(GO) run ./benchmark

# MICRO_BENCH names every micro-benchmark kept beside the benchmark: the
# kernels a layer's own change is measured with while working on it
# (`go test -bench`), none of them an end-to-end claim.
MICRO_BENCH := Table1SingleRun|EstimateE|ESmall|ELarge|CriticalPath|CriticalPathStar|GraphChurn
MICRO_BENCH := $(MICRO_BENCH)|WouldCycleFromStar|CloneStar|Solve32|SolvePaper32
MICRO_BENCH := $(MICRO_BENCH)|EachConflictingDecl500|IsBlocked500|DeclareRelease|WouldExceedK500
MICRO_BENCH := $(MICRO_BENCH)|QueueChurn|QueueScheduleFire|SweepParallel1|SweepParallelN
MICRO_BENCH := $(MICRO_BENCH)|StorageScan|StorageInsert

# bench-smoke executes each micro-benchmark exactly once and the
# benchmark's -quick pass over all six workloads (with its correctness
# gate), so verify catches a benchmark that no longer compiles, crashes
# or fails its checks, without the cost of a measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark($(MICRO_BENCH))$$' -benchtime 1x ./...
	$(GO) run ./benchmark -quick

# epoch-smoke drives the epoch path end to end — registry lookup, batch
# admission, window flushes, the sweep harness and its JSON export —
# on a tiny sweep, so verify catches breakage without the cost of a
# full sweep.
epoch-smoke:
	$(GO) run ./cmd/batbench -epoch -quick -q -maxtxns 20 -windows 0,500,2000 -json /dev/null

# chaos runs the fault-injection suites (docs/ROBUSTNESS.md) under the
# race detector: the simulator's 100-seed × scheduler matrix (including
# the 100-seed epoch-window run, TestChaosEpoch), the live controller's
# goroutine chaos (including the epoch pipeline, TestEpochChaosLive),
# and the abort/watchdog regression tests. Seeds are fixed — a red
# chaos run reproduces.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|TestAbort|TestWatchdog|TestFaults|StorageDifferential' \
		./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/core/sched/

# chaos-nodes runs the node-crash recovery battery (docs/ROBUSTNESS.md
# §8) under the race detector: the crashed-node chaos matrix, the
# differential (subset-of-clean-run) test, the seeded 8-node acceptance
# scenario, the live CrashNode tests, and the model checker's
# crash-at-every-prefix exploration.
chaos-nodes:
	$(GO) test -race -count=1 -run 'NodeCrash|CrashNode|CrashedCommits|CrashAnywhere|ErrNodeCrashed|EpisodesNotTicks|Placement|DataNodeKill' \
		./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/machine/ ./internal/modelcheck/

# chaos-restart runs the kill-and-restart battery (docs/ROBUSTNESS.md
# §9) under the race detector: WAL encode/decode + corruption fuzz +
# group commit + the consistent cut across node logs, the durability
# binding's failure table and its sim-vs-live grammar differential, the
# simulator's 100-seed × scheduler kill matrix with replay-equivalence
# checks, the live controller's crash/recover round trip and its 50-seed
# kill between lock release and force, the storage write barrier, the
# KillAt determinism test, and the recovery model checker. Every failure
# message carries a one-line repro (scheduler, seed, kill point, flush
# fraction).
chaos-restart:
	$(GO) test -race -count=1 -run 'Restart|KillRestart|KillAt|KillBetween|Recover|WAL|Replay|Torn|GroupCommit|Corruption|RoundTrip|ConsistentCut|SyncAfterClose|ScanPrefix|WriteBarrier|CommitPrefix|ReopenedHeap|PreCommit|ClosedLog|NeverForces|FailedForce|GrammarDifferential' \
		./internal/wal/ ./internal/durable/ ./internal/sim/ ./internal/live/ ./internal/fault/ ./internal/modelcheck/ ./internal/storage/

# The greps keep closed forks closed: a deprecated shim or an
# environment-variable switch is a second path someone has to test, and a
# driver that builds its own log record is a second statement of the
# write-ahead contract (internal/durable holds the one). The gofmt line
# fails on any file gofmt would rewrite.
verify: build test chaos chaos-nodes chaos-restart bench-smoke epoch-smoke
	$(GO) vet ./...
	! grep -rn 'Deprecated:' --include='*.go' .
	! grep -rn 'os.Getenv' --include='*.go' .
	! grep -rn 'wal\.Record{' --include='*.go' --exclude='*_test.go' internal/live internal/sim cmd
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./internal/live/... ./internal/obs/... ./internal/core/sched/ ./internal/core/wtpg/ ./internal/experiments/ ./internal/event/ ./internal/wal/ ./internal/storage/ ./internal/durable/
	$(GO) test -race -count=1 -run 'Stripe|ZeroCopy|FlusherLag|PoolConcurrent' ./internal/storage/
	$(GO) test -race -count=1 -run 'Epoch' ./internal/core/sched/ ./internal/sim/
	$(GO) test -tags wtpgshadow -count=1 ./internal/core/... ./internal/sim/

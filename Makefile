# Tier-1 check (ROADMAP.md) plus static analysis and the race detector
# on every package.

GO ?= go

.PHONY: build test bench bench-smoke harness-smoke reproduce verify

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
MICRO_BENCH := Table1SingleRun|EstimateE|EstimateECold|ESmall|ELarge|CriticalPath|CriticalPathStar|GraphChurn
MICRO_BENCH := $(MICRO_BENCH)|WouldCycleFromStar|CloneStar|Solve32|SolverSolve32|SolvePaper32
MICRO_BENCH := $(MICRO_BENCH)|ConflictingDecls500|IsBlocked500|DeclareRelease|WouldExceedK500|LockCycle
MICRO_BENCH := $(MICRO_BENCH)|SchedCycleK2|SchedCycleChain|C2PLRefusalRepeat|CertifyHotSet
MICRO_BENCH := $(MICRO_BENCH)|QueueChurn|QueueRetryBacklog|QueueScheduleFire|ControlNodePump|DataNodeQuantum
MICRO_BENCH := $(MICRO_BENCH)|SweepParallel1|SweepParallelN
MICRO_BENCH := $(MICRO_BENCH)|StorageScan|StorageScanCold|StorageInsert
MICRO_BENCH := $(MICRO_BENCH)|ChainAdmitRefused|StaysChainForm|LiveHotSet|LiveUniform|IDMapChurn
MICRO_BENCH := $(MICRO_BENCH)|C2PLArrivalHot|ChainAdmitRefusedHot|GeneratorNextPattern2

# bench-smoke executes each micro-benchmark exactly once and the
# benchmark's -quick pass over all six workloads (with its correctness
# gate), so verify catches a benchmark that no longer compiles, crashes
# or fails its checks, without the cost of a measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark($(MICRO_BENCH))$$' -benchtime 1x ./...
	$(GO) run ./benchmark -quick

# harness-smoke drives batbench's grid paths end to end on tiny sweeps —
# the retry-delay ablation (the §3.2 delay axis that carries the
# control-bound result), the placement ablation, a variant figure
# (Figure 8's NumHots axis) and Figure 6 under injected aborts (-abortrate,
# the simulator's one injected behaviour) — so verify catches breakage
# without the cost of a full sweep, and one short batsim -live run of the
# live controller over a real heap store and WAL, then batsim -recoverwal
# over that log (replay plus modelcheck.VerifyRecovery): the CLI's file
# path, which no other verify step drives from a program. Last, wtpgviz
# on Figure 1's three transactions must print the paper's optimal W and
# its critical path (Graph.ChainInput, chainopt.Solve).
harness-smoke:
	$(GO) run ./cmd/batbench -ablation retrydelay -quick -horizon 50000 -lambdas 0.3,0.6 -q > /dev/null
	$(GO) run ./cmd/batbench -ablation placement -quick -horizon 50000 -lambdas 0.3,0.6 -q > /dev/null
	$(GO) run ./cmd/batbench -fig 8 -quick -horizon 50000 -lambdas 0.3,0.6 -q > /dev/null
	$(GO) run ./cmd/batbench -fig 6 -quick -horizon 50000 -lambdas 0.3 -abortrate 0.2 -q > /dev/null
	hd="$$(mktemp -d)" && wd="$$(mktemp -d)" && \
	$(GO) run ./cmd/batsim -live -livetxns 500 -storage "$$hd" -wal "$$wd" > /dev/null && \
	$(GO) run ./cmd/batsim -recoverwal "$$wd" > /dev/null; \
	rc=$$?; rm -rf "$$hd" "$$wd"; exit $$rc
	printf 'T1: r(A:1) -> r(B:3) -> w(A:1)\nT2: r(C:1) -> w(A:1)\nT3: w(C:1) -> r(D:3)\n' | \
	$(GO) run ./cmd/wtpgviz | grep -q 'T1->T2, T3->T2}, critical path 6$$'

# reproduce regenerates results_full.txt and results_ablations.txt with
# their documented commands (EXPERIMENTS.md) into a temporary directory
# and compares each byte for byte with the committed file, so a change
# that moves any number of the paper's figures or of the ablations fails
# here. It takes about a minute on two cores.
reproduce:
	d="$$(mktemp -d)" && \
	$(GO) build -o "$$d/batbench" ./cmd/batbench && \
	"$$d/batbench" -all > "$$d/results_full.txt" && \
	{ "$$d/batbench" -ablation all -horizon 1000000 && \
	  "$$d/batbench" -mixed -horizon 1000000; } > "$$d/results_ablations.txt" && \
	cmp results_full.txt "$$d/results_full.txt" && \
	cmp results_ablations.txt "$$d/results_ablations.txt"; \
	rc=$$?; rm -rf "$$d"; exit $$rc

# verify is the whole gate. Its one race run covers every package — the
# chaos and kill-restart batteries of docs/ROBUSTNESS.md included, each ending in the contract certificate (§10) — so a new test
# is picked up without anyone naming it here; seeds are fixed, and a
# battery's failure message carries its one-line repro. For one battery
# while working on it: $(GO) test -race -count=1 -run <Name> ./internal/<pkg>/.
# The greps keep closed forks closed: a deprecated shim or an
# environment-variable switch is a second path someone has to test, and a
# driver that builds its own log record is a second statement of the
# write-ahead contract (internal/live holds the one, and wal.NewCommit
# builds its record), and so is a package importing the retired
# internal/durable layer or a call of the no-op Store.Stage outside the
# frozen benchmark program (a commit applies its footprint; nothing is
# staged), and a closure
# built per control job or per retry in internal/sim is an allocation per
# attempt that the transaction's own records exist to avoid
# (docs/PERFORMANCE.md §11), and File.Fd hands the storage read path a
# descriptor number that Store.Crash's Close can invalidate under it
# (RawConn.Control holds the reference), and a goroutine in the heap store
# is page traffic no caller's call accounts for — the store moves pages
# only when it is called — and internal/live importing internal/fault or
# internal/machine is a second machine model under the lock manager (the
# simulator holds the one; live's batteries inject through Run's work
# callback), and internal/sim importing internal/wal or internal/storage
# is a second durability driver beside the live
# controller (the simulator is a cost model and writes no file), and a
# goroutine in the live controller is scheduling no
# caller's call accounts for — every wait ends on a wake event, the §3.2
# resubmit timer, Close or the caller's ctx, and live.WithShards called
# anywhere but the frozen benchmark program is the sharded controller
# coming back (DESIGN.md §13: the no-op shim stays only for benchmark/),
# and sched.Degradable named anywhere but its declaration and the frozen
# benchmark program is CHAIN's degraded mode coming back (docs/ROBUSTNESS.md
# §3: chain form holds by construction, so CHAIN runs in one mode), and
# Graph.EdgeBetween outside a test is a lookup by id pair coming back where
# a chain-form decision reads a member's at most two adjacency entries
# (Graph.ChainInput; the reference conversion lives in wtpg's tests).
# Every example is a self-checking
# program (livebatch exits nonzero on a lost update), so each must exit 0.
# What no program reaches,
# TestReachable catches in the tier-1 run (DESIGN.md §15). The darwin
# vet keeps the read loop of every GOOS without preadv compiling. The
# gofmt line fails on any file gofmt would rewrite.
verify: build test bench-smoke harness-smoke
	$(GO) vet ./...
	! grep -rn 'Deprecated:' --include='*.go' .
	! grep -rn 'os.Getenv' --include='*.go' .
	! grep -rn 'wal\.Record{' --include='*.go' --exclude='*_test.go' internal/live internal/sim cmd
	! grep -n 'Submit(func\|retryLater(func' internal/sim/*.go
	! grep -n '\.Fd()' internal/storage/*.go
	! grep -rn 'go func' --include='*.go' --exclude='*_test.go' internal/storage
	! grep -rn 'type Iterator\|func (st \*Store) Scan(' --include='*.go' internal/storage
	! grep -rn 'poolEvent' --include='*.go' internal/storage
	! grep -rn '"batsched/internal/\(fault\|machine\)"' --include='*.go' --exclude='*_test.go' internal/live
	! grep -rnE '"batsched/internal/(wal|storage)"' --include='*.go' --exclude='*_test.go' internal/sim
	! grep -rn '"batsched/internal/durable"' --include='*.go' .
	! grep -rn '\.Stage(' --include='*.go' --exclude-dir=benchmark .
	! grep -rnE '^\s*go ' --include='*.go' --exclude='*_test.go' internal/live
	! grep -rn 'WithShards' --include='*.go' --exclude-dir=benchmark . | grep -v '^./internal/live/live.go:[0-9]*:\(// WithShards is a no-op\|func WithShards(int) Option\)'
	! grep -rn 'Degradable' --include='*.go' --exclude-dir=benchmark . | grep -v '^./internal/core/sched/abort.go:'
	! grep -rn 'EdgeBetween' --include='*.go' --exclude='*_test.go' .
	GOOS=darwin $(GO) vet ./internal/storage/
	test -z "$$(gofmt -l .)"
	for d in examples/*/; do $(GO) run ./$$d > /dev/null || exit 1; done
	$(GO) test -race -count=1 ./...

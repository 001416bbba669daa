package sim

// The kill-and-restart chaos battery (docs/ROBUSTNESS.md §9): for each
// scheduler, 100 seeds each pick a deterministic kill point inside the
// run's active span, cut the machine off there mid-flight
// (SIGKILL-equivalent: the event queue simply stops and the WAL is
// crash-closed with a partially-flushed tail), then recover from the
// surviving log prefix and check replay equivalence — the recovered
// committed set must equal the set of transactions the dying run
// counted as committed, exactly: no committed transaction lost, no
// uncommitted transaction resurrected. That, and the rest of the
// contract, is one modelcheck.History.Certify call per seed.

import (
	"fmt"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/wal"
)

func TestKillRestartBattery(t *testing.T) {
	factories := []sched.Factory{
		sched.ASLFactory(),
		sched.C2PLFactory(),
		sched.ChainFactory(),
		sched.KWTPGFactory(2),
	}
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	cfgFaults := fault.Config{KillRestart: true, AbortRate: 0.15}
	for _, f := range factories {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			maxPar, inFlight, tornBytes, recovered := 0, 0, int64(0), 0
			for seed := 0; seed < seeds; seed++ {
				inj, err := fault.New(uint64(seed)+1, cfgFaults)
				if err != nil {
					t.Fatal(err)
				}
				// Baseline pass: same seed, full horizon, no WAL — its
				// LastCompletion bounds the active span, so the kill point
				// always lands with work genuinely in flight.
				base, err := Run(chaosConfig(f, int64(seed)), WithFaults(inj))
				if err != nil {
					t.Fatalf("seed %d: baseline: %v", seed, err)
				}
				killAt, ok := inj.KillAt(base.LastCompletion)
				if !ok || killAt <= 0 {
					t.Fatalf("seed %d: no kill point in window %v", seed, base.LastCompletion)
				}
				frac := inj.KillFlushFrac()
				repro := fmt.Sprintf("repro: go test -run 'TestKillRestartBattery/%s' ./internal/sim/ with seed=%d killat=%d flushfrac=%.3f",
					f.Label, seed, int64(killAt), frac)

				cfg := chaosConfig(f, int64(seed))
				cfg.Horizon = killAt // SIGKILL: the timeline just stops here
				dir := t.TempDir()
				l, err := wal.Open(dir, cfg.Machine.NumNodes)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				h := modelcheck.NewHistory()
				res, err := Run(cfg, WithFaults(inj), WithWAL(l), WithTrace(h))
				if err != nil {
					t.Fatalf("seed %d: killed run: %v\n%s", seed, err, repro)
				}
				if n := len(h.Committed()); res.Completed != n {
					t.Fatalf("seed %d: %d commits counted, %d observed\n%s", seed, res.Completed, n, repro)
				}
				l.Crash(frac)

				scans, err := wal.Scan(dir)
				if err != nil {
					t.Fatalf("seed %d: scan after crash: %v\n%s", seed, err, repro)
				}
				rec, err := wal.Replay(scans, 4, nil)
				if err != nil {
					t.Fatalf("seed %d: replay: %v\n%s", seed, err, repro)
				}
				// Replay equivalence — sim acknowledges in the commit event,
				// so recovered must equal committed exactly — and the rest
				// of the contract (docs/ROBUSTNESS.md §10).
				if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Killed: true}); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				if rec.MaxParallel > maxPar {
					maxPar = rec.MaxParallel
				}
				inFlight += res.LiveAtEnd
				tornBytes += rec.TruncatedBytes
				recovered += len(rec.Committed)
			}
			// The battery must actually exercise what it claims to: kills
			// land with transactions admitted but not committed (they
			// left no record, and Certify found none recovered), and
			// independent committed transactions replay in parallel.
			if inFlight == 0 {
				t.Errorf("%s: no transaction in flight at any of %d kills — kills landed in drained tails", f.Label, seeds)
			}
			if maxPar <= 1 && recovered > 1 {
				t.Errorf("%s: replay parallelism never exceeded 1 across %d recoveries", f.Label, seeds)
			}
			t.Logf("%s: %d seeds: %d committed replayed, %d in flight at the kill, %d torn bytes truncated, max replay parallelism %d",
				f.Label, seeds, recovered, inFlight, tornBytes, maxPar)
		})
	}
}

// TestWALOffIsByteIdentical locks in the zero-cost guarantee for the
// recovery subsystem, mirroring TestFaultsOffIsByteIdentical: a run
// with no WAL attached is byte-identical to one that never heard of
// durability, and attaching a WAL changes only durability — the
// simulated Result is identical too (all WAL work happens at existing
// event boundaries and costs zero simulated time).
func TestWALOffIsByteIdentical(t *testing.T) {
	cfg := chaosConfig(sched.KWTPGFactory(2), 11)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(t.TempDir(), cfg.Machine.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := Run(cfg, WithWAL(l))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", logged) {
		t.Errorf("attaching a WAL changed the simulated result:\nbase:   %+v\nlogged: %+v", base, logged)
	}
}

// TestCleanShutdownRecoversEverything is the no-crash control: a run
// that completes and closes its log cleanly recovers with every
// committed transaction present, one record each, and no torn bytes.
func TestCleanShutdownRecoversEverything(t *testing.T) {
	cfg := chaosConfig(sched.ChainFactory(), 5)
	dir := t.TempDir()
	l, err := wal.Open(dir, cfg.Machine.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, WithWAL(l))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scans, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != res.Completed {
		t.Errorf("recovered %d committed, run counted %d", len(rec.Committed), res.Completed)
	}
	if rec.Records != res.Completed || rec.TruncatedBytes != 0 {
		t.Errorf("clean shutdown left %d records, %d torn bytes; want %d records, none torn",
			rec.Records, rec.TruncatedBytes, res.Completed)
	}
	if err := modelcheck.VerifyRecovery(scans, rec); err != nil {
		t.Error(err)
	}
}

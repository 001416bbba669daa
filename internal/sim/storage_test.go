package sim

// Storage differential and crash batteries (ISSUE PR 9): the storage
// engine moves real bytes but must never move the model. The
// differential battery pins that — across seeds and schedulers, a
// storage-backed run produces a byte-identical Result, the same
// committed set, and final partition contents exactly equal to the pure
// function of that committed set (internal/storage's effect model). The
// kill-restart battery extends PR 7's replay equivalence to pages:
// SIGKILL mid-flush tears both the WAL tail and un-fsynced heap pages,
// and recovery (page-level truncation + WAL redo) must restore contents
// ≡ the durable committed set — certified by modelcheck.History.

import (
	"fmt"
	"testing"
	"time"

	"batsched/internal/core/sched"
	"batsched/internal/fault"
	"batsched/internal/modelcheck"
	"batsched/internal/storage"
	"batsched/internal/wal"
)

// storageFactories is the differential matrix: every scheduler family.
func storageFactories() []sched.Factory {
	return []sched.Factory{
		sched.ASLFactory(),
		sched.C2PLFactory(),
		sched.ChainFactory(),
		sched.KWTPGFactory(2),
	}
}

// TestStorageDifferentialCommitSet is the differential battery: 50
// seeds per scheduler, each run twice — modelled (no storage) and
// storage-backed. The storage run must (1) return a byte-identical
// Result, (2) commit exactly the same set, and (3) leave every heap
// partition holding exactly the effects of that committed set.
func TestStorageDifferentialCommitSet(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	for _, f := range storageFactories() {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				repro := fmt.Sprintf("repro: go test -run 'TestStorageDifferentialCommitSet/%s' ./internal/sim/ with seed=%d", f.Label, seed)
				cfg := chaosConfig(f, int64(seed))
				hA, hB := modelcheck.NewHistory(), modelcheck.NewHistory()
				base, err := Run(cfg, WithTrace(hA))
				if err != nil {
					t.Fatalf("seed %d: modelled run: %v\n%s", seed, err, repro)
				}

				dir := t.TempDir()
				st, err := storage.Open(dir, cfg.Machine.NumParts,
					storage.WithPageSize(1024), storage.WithPoolFrames(8),
					storage.WithNodes(cfg.Machine.NumNodes),
					storage.WithBackgroundFlush(time.Millisecond))
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				wdir := t.TempDir()
				l, err := wal.Open(wdir, cfg.Machine.NumNodes)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				res, err := Run(cfg, WithStorage(st), WithWAL(l), WithTrace(hB))
				if err != nil {
					t.Fatalf("seed %d: storage run: %v\n%s", seed, err, repro)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}

				// (1) The time model is untouched: byte-identical Result.
				if fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", res) {
					t.Fatalf("seed %d: storage changed the simulated result\nmodelled: %+v\nstorage:  %+v\n%s",
						seed, base, res, repro)
				}
				// (2) Same committed set.
				committedA, committedB := hA.Committed(), hB.Committed()
				if len(committedA) != len(committedB) {
					t.Fatalf("seed %d: committed %d modelled vs %d with storage\n%s",
						seed, len(committedA), len(committedB), repro)
				}
				for id := range committedA {
					if !committedB[id] {
						t.Fatalf("seed %d: %v committed modelled but not with storage\n%s", seed, id, repro)
					}
				}
				// (3) Contents ≡ pure function of the committed set, which is
				// what the cleanly closed log recovers — the whole contract
				// (docs/ROBUSTNESS.md §10) on both runs.
				scans, err := wal.Scan(wdir)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				rec, err := wal.Replay(scans, 4, nil)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				if err := hA.Certify(modelcheck.Evidence{}); err != nil {
					t.Fatalf("seed %d: modelled run: %v\n%s", seed, err, repro)
				}
				if err := hB.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Store: st}); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				if st.PinnedFrames() != 0 {
					t.Fatalf("seed %d: %d frames still pinned after the run\n%s", seed, st.PinnedFrames(), repro)
				}
				if st.Stats().Hits+st.Stats().Misses == 0 && res.Completed > 0 {
					t.Fatalf("seed %d: run committed %d transactions without touching a page\n%s",
						seed, res.Completed, repro)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("seed %d: close: %v\n%s", seed, err, repro)
				}
			}
		})
	}
}

// TestStorageKillRestartTornPages is the crash-consistency battery:
// SIGKILL mid-flush (fault.KillAt picks the kill point, KillFlushFrac
// the flush fraction) tears both the WAL tail and the un-fsynced heap
// pages, then recovery reopens the store (page-level truncation +
// reinitialization), replays the WAL with Store.Redo as the apply
// callback, passes modelcheck.VerifyRecovery, and must leave partition
// contents exactly ≡ the durable committed set.
func TestStorageKillRestartTornPages(t *testing.T) {
	factories := []sched.Factory{
		sched.ChainFactory(),
		sched.KWTPGFactory(2),
		sched.ASLFactory(),
	}
	seeds := 30
	if testing.Short() {
		seeds = 5
	}
	cfgFaults := fault.Config{KillRestart: true, AbortRate: 0.15}
	for _, f := range factories {
		f := f
		t.Run(f.Label, func(t *testing.T) {
			t.Parallel()
			tornTotal, redone := 0, 0
			for seed := 0; seed < seeds; seed++ {
				inj, err := fault.New(uint64(seed)+1, cfgFaults)
				if err != nil {
					t.Fatal(err)
				}
				base, err := Run(chaosConfig(f, int64(seed)), WithFaults(inj))
				if err != nil {
					t.Fatalf("seed %d: baseline: %v", seed, err)
				}
				killAt, ok := inj.KillAt(base.LastCompletion)
				if !ok || killAt <= 0 {
					t.Fatalf("seed %d: no kill point in window %v", seed, base.LastCompletion)
				}
				frac := inj.KillFlushFrac()
				repro := fmt.Sprintf("repro: go test -run 'TestStorageKillRestartTornPages/%s' ./internal/sim/ with seed=%d killat=%d flushfrac=%.3f",
					f.Label, seed, int64(killAt), frac)

				cfg := chaosConfig(f, int64(seed))
				cfg.Horizon = killAt // SIGKILL: the timeline just stops
				hdir, wdir := t.TempDir(), t.TempDir()
				sopts := []storage.Option{
					storage.WithPageSize(1024), storage.WithPoolFrames(8),
					storage.WithNodes(cfg.Machine.NumNodes),
					storage.WithBackgroundFlush(time.Millisecond),
				}
				st, err := storage.Open(hdir, cfg.Machine.NumParts, sopts...)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				l, err := wal.Open(wdir, cfg.Machine.NumNodes)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				h := modelcheck.NewHistory()
				if _, err = Run(cfg, WithFaults(inj), WithWAL(l), WithStorage(st), WithTrace(h)); err != nil {
					t.Fatalf("seed %d: killed run: %v\n%s", seed, err, repro)
				}
				// SIGKILL both halves with the same flush fraction.
				l.Crash(frac)
				if err := st.Crash(frac); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}

				// Restart: page-level recovery at Open, then WAL replay
				// drives Redo for every durably committed transaction.
				st2, err := storage.Open(hdir, cfg.Machine.NumParts, sopts...)
				if err != nil {
					t.Fatalf("seed %d: reopen: %v\n%s", seed, err, repro)
				}
				tornTotal += st2.TornPages()
				scans, err := wal.Scan(wdir)
				if err != nil {
					t.Fatalf("seed %d: scan: %v\n%s", seed, err, repro)
				}
				rec, err := wal.Replay(scans, 4, func(b wal.Record, wave int) {
					if err := st2.Redo(b); err != nil {
						t.Errorf("seed %d: redo %v: %v\n%s", seed, b.Txn, err, repro)
					}
				})
				if err != nil {
					t.Fatalf("seed %d: replay: %v\n%s", seed, err, repro)
				}
				if err := st2.Flush(); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				// Recovered ≡ committed (sim acknowledges in the commit
				// event), contents ≡ the recovered set's write steps.
				if err := h.Certify(modelcheck.Evidence{Scans: scans, Recovery: rec, Killed: true, Store: st2}); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, repro)
				}
				redone += len(rec.Committed)
				if err := st2.Close(); err != nil {
					t.Fatalf("seed %d: close: %v\n%s", seed, err, repro)
				}
			}
			if tornTotal == 0 {
				t.Errorf("%s: no page was ever torn across %d crashes — the crash model is vacuous", f.Label, seeds)
			}
			t.Logf("%s: %d seeds: %d committed transactions redone, %d torn pages recovered", f.Label, seeds, redone, tornTotal)
		})
	}
}

// TestStorageOffIsByteIdentical pins the zero-cost guarantee from the
// other side: attaching storage must not change the simulated Result
// (all page work happens at existing event boundaries and costs zero
// simulated time). The differential battery covers this across seeds;
// this is the quick, named pin.
func TestStorageOffIsByteIdentical(t *testing.T) {
	cfg := chaosConfig(sched.KWTPGFactory(2), 17)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(t.TempDir(), cfg.Machine.NumParts, storage.WithPageSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	backed, err := Run(cfg, WithStorage(st))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", backed) {
		t.Errorf("attaching storage changed the simulated result:\nbase:    %+v\nstorage: %+v", base, backed)
	}
}

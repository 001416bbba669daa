package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/modelcheck"
	"batsched/internal/storage"
	"batsched/internal/txn"
	"batsched/internal/wal"
	"batsched/internal/workload"
)

// TestRunLiveModeRejectsNoTxns: -livetxns below one is an error, not a
// makeslice panic.
func TestRunLiveModeRejectsNoTxns(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := runLiveMode(sched.MustLookup("C2PL"), workload.Experiment1(16), n, 1, liveFiles{}); err == nil {
			t.Errorf("runLiveMode(n=%d) succeeded", n)
		}
	}
}

// TestRunLiveModeFiles: -wal and -storage log and back the live run. The
// log closed by the run recovers every commit, one record each, and the
// store's files hold a page for every write the run made.
func TestRunLiveModeFiles(t *testing.T) {
	files := liveFiles{walDir: t.TempDir(), storageDir: t.TempDir(), pageSize: 1024, poolFrames: 8, nodes: 8, parts: 16}
	const n = 60
	if err := runLiveMode(sched.MustLookup("K2"), workload.Experiment1(16), n, 1, files); err != nil {
		t.Fatal(err)
	}
	scans, err := wal.Scan(files.walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != files.nodes {
		t.Errorf("%d node logs, want %d", len(scans), files.nodes)
	}
	rec, err := wal.Replay(scans, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Committed) != n || rec.Records != n || rec.TruncatedBytes != 0 {
		t.Errorf("recovered %d committed from %d records, %d torn bytes; want %d, %d, 0",
			len(rec.Committed), rec.Records, rec.TruncatedBytes, n, n)
	}
	st, err := storage.Open(files.storageDir, files.parts, storage.WithPageSize(files.pageSize))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	effects := 0
	for p := 0; p < files.parts; p++ {
		keys, err := st.Keys(txn.PartitionID(p))
		if err != nil {
			t.Fatal(err)
		}
		effects += len(keys)
	}
	if want := 2 * n; effects != want { // Pattern1 writes F1 and F2
		t.Errorf("heap holds %d effects after the run's Close, want %d", effects, want)
	}
}

// TestRunLiveModeReusedWAL: a second run logged into the same directory
// numbers its transactions after the first run's, so the log stays
// recoverable and its recovery keeps every commit either run
// acknowledged. (Numbered from 1 again, the second run's Commit records
// would repeat the first run's ids and Replay would refuse the whole log
// as holding a duplicate commit.)
func TestRunLiveModeReusedWAL(t *testing.T) {
	files := liveFiles{walDir: t.TempDir(), nodes: 8, parts: 16}
	const n = 40
	for run := 1; run <= 2; run++ {
		if err := runLiveMode(sched.MustLookup("C2PL"), workload.Experiment1(16), n, int64(run), files); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	scans, err := wal.Scan(files.walDir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Replay(scans, 1, nil)
	if err != nil {
		t.Fatalf("the log of two runs is unrecoverable: %v", err)
	}
	if len(rec.Committed) != 2*n || rec.MaxID != 2*n {
		t.Fatalf("recovered %d committed up to %v, want %d up to T%d", len(rec.Committed), rec.MaxID, 2*n, 2*n)
	}
	if err := modelcheck.VerifyRecovery(scans, rec); err != nil {
		t.Fatal(err)
	}
}

// parseFlags is batsim's flag set in miniature: the flags the checks
// read, parsed from args.
func parseFlags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("batsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range []string{"sched", "workload", "seed", "livetxns", "horizon", "wal", "storage", "pagesize", "pool", "json", "lambda"} {
		fs.String(name, "", "")
	}
	fs.Bool("live", false, "")
	fs.Bool("plotlive", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCheckLiveFlags: live mode names every sim-only flag that was set,
// rather than dropping it without a word, and accepts the ones it reads,
// the file flags included; the simulator names every file flag set,
// since it writes no file.
func TestCheckLiveFlags(t *testing.T) {
	for _, c := range []struct {
		live bool
		args []string
		want string // "" = accepted
	}{
		{true, []string{"-live", "-sched", "CHAIN", "-workload", "exp2", "-seed", "3", "-livetxns", "10",
			"-wal", "/w", "-storage", "/h", "-pagesize", "1024", "-pool", "8"}, ""},
		{true, []string{"-live", "-wal", "/x", "-horizon", "5", "-plotlive", "-json", "-"},
			"-live runs the live controller, which does not read -horizon, -json, -plotlive"},
		{false, []string{"-horizon", "5", "-json", "-", "-sched", "K2"}, ""},
		{false, []string{"-storage", "/h", "-wal", "/w", "-horizon", "5"},
			"-storage, -wal: the simulator writes no file; add -live to run the live controller"},
	} {
		err := checkLiveFlags(parseFlags(t, c.args...), c.live)
		if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
			t.Errorf("%v: %v, want %q", c.args, err, c.want)
		}
	}
}

// TestChooseWorkload: an input the generator cannot draw from is one
// error naming its flag, not a panic at the first arrival, and every
// accepted one draws transactions inside the partition count it returns.
func TestChooseWorkload(t *testing.T) {
	bad := []struct {
		name, pattern    string
		numParts, numHot int
		sigma            float64
		flag             string
	}{
		{"exp1", "", 1, 8, 0.5, "-numparts 1"},
		{"exp1", "", 0, 8, 0.5, "-numparts 0"},
		{"exp4", "", 1, 8, 0.5, "-numparts 1"},
		{"exp4", "", 16, 8, -1, "-sigma -1"},
		{"exp4", "", 16, 8, math.Inf(1), "-sigma +Inf"},
		{"exp2", "", 16, 1, 0.5, "-numhots 1"},
		{"exp2", "", 16, 0, 0.5, "-numhots 0"},
		{"exp3", "", 16, -2, 0.5, "-numhots -2"},
		{"custom", "r(A:1) -> w(B:1) -> w(C:1)", 2, 8, 0.5, "-numparts 2"},
		{"custom", "r(A:1)", -1, 8, 0.5, "-numparts -1"},
		{"custom", "", 16, 8, 0.5, "-pattern"},
		{"custom", "w(A:NaN) -> r(B:1)", 16, 8, 0.5, "-pattern"},
		{"custom", "w(A:Inf) -> r(B:1)", 16, 8, 0.5, "-pattern"},
		{"custom", "w(A:-Inf) -> r(B:1)", 16, 8, 0.5, "-pattern"},
		{"custom", "r(A:1) -> w(B:infinity)", 16, 8, 0.5, "-pattern"},
		{"custom", "w(A:1e308)", 16, 8, 0.5, "-pattern"},
		{"exp9", "", 16, 8, 0.5, "exp9"},
	}
	for _, c := range bad {
		gen, _, err := chooseWorkload(c.name, c.pattern, c.numParts, c.numHot, c.sigma)
		if err == nil || gen != nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %+v: generator %v, error %v; want one line naming %q", c.name, c, gen, err, c.flag)
		}
	}
	good := []struct {
		name, pattern    string
		numParts, numHot int
		wantParts        int
	}{
		{"exp1", "", 2, 8, 2},
		{"exp4", "", 16, 8, 16},
		{"exp2", "", 16, 2, 10},
		{"exp3", "", 16, 8, 16},
		{"custom", "r(A:1) -> w(B:1)", 2, 8, 2},
	}
	for _, c := range good {
		gen, parts, err := chooseWorkload(c.name, c.pattern, c.numParts, c.numHot, 0.5)
		if err != nil || parts != c.wantParts {
			t.Errorf("%s %+v: %d partitions, error %v; want %d", c.name, c, parts, err, c.wantParts)
			continue
		}
		rng := rand.New(rand.NewSource(1))
		for id := txn.ID(1); id <= 50; id++ {
			for _, s := range gen.Next(id, rng).Steps {
				if int(s.Part) >= parts {
					t.Fatalf("%s: %v steps on partition %v of %d", c.name, id, s.Part, parts)
				}
			}
		}
	}
}

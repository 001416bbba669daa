package main

import (
	"flag"
	"io"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/workload"
)

// TestRunLiveModeRejectsNoTxns: -livetxns below one is an error, not a
// makeslice panic.
func TestRunLiveModeRejectsNoTxns(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := runLiveMode(sched.MustLookup("C2PL"), workload.Experiment1(16), 4, n, 1); err == nil {
			t.Errorf("runLiveMode(n=%d) succeeded", n)
		}
	}
}

// TestCheckLiveFlags: live mode names every sim-only flag that was set,
// rather than dropping it without a word, and accepts the ones it reads.
func TestCheckLiveFlags(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("batsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range []string{"sched", "workload", "seed", "shards", "livetxns", "horizon", "wal", "json", "lambda"} {
			fs.String(name, "", "")
		}
		fs.Bool("plotlive", false, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := checkLiveFlags(parse("-shards", "2", "-sched", "CHAIN", "-workload", "exp2", "-seed", "3", "-livetxns", "10")); err != nil {
		t.Errorf("live flags only: %v", err)
	}
	err := checkLiveFlags(parse("-shards", "2", "-wal", "/x", "-horizon", "5", "-plotlive", "-json", "-"))
	want := "-shards runs the live controller, which does not read -horizon, -json, -plotlive, -wal"
	if err == nil || err.Error() != want {
		t.Errorf("sim-only flags: %v, want %q", err, want)
	}
}

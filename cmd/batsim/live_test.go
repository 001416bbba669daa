package main

import (
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

// Control-bound scheduling: how often to re-test a refused arrival.
//
// §3.2 resubmits a delayed or aborted request after a fixed retry delay.
// At the paper's control costs the delay hardly matters. Scale the
// control node's decision costs (ddtime, chaintime, kwtpgtime) by 100
// and CHAIN becomes control-bound: every arrival refused for breaking
// chain form is re-tested at ddtime after each delay, and those re-tests
// fill the control node. This example releases the same 300 Pattern1
// arrivals at λ = 0.8 TPS, seeds 1990–1994, under each cost scale and
// retry delay, and prints the committed count, makespan and mean
// response time as min–max over the seeds: the table in EXPERIMENTS.md,
// "Control-bound: the retry delay".
//
// Run with: go run ./examples/controlbound
package main

import (
	"fmt"
	"math"
	"os"

	"batsched"
)

const arrivals = 300

// spread is a min–max range over the seeds.
type spread struct{ lo, hi float64 }

func newSpread() spread { return spread{math.Inf(1), math.Inf(-1)} }

func (s *spread) add(v float64) { s.lo, s.hi = min(s.lo, v), max(s.hi, v) }

func (s spread) String() string { return fmt.Sprintf("%.0f–%.0f", s.lo, s.hi) }

func main() {
	scales := []struct {
		name string
		set  func(*batsched.ControlCosts)
	}{
		{"x1", func(*batsched.ControlCosts) {}},
		{"x10", func(c *batsched.ControlCosts) { c.DDTime *= 10; c.ChainTime *= 10; c.KWTPGTime *= 10 }},
		{"x100", func(c *batsched.ControlCosts) { c.DDTime *= 100; c.ChainTime *= 100; c.KWTPGTime *= 100 }},
		{"DDTime x100", func(c *batsched.ControlCosts) { c.DDTime *= 100 }},
	}
	delays := []batsched.Time{500, 2000, 5000, 10_000, 15_000, 20_000}
	fmt.Printf("CHAIN, %d Pattern1 arrivals at λ = 0.8 TPS, seeds 1990–1994 (min–max)\n", arrivals)
	fmt.Printf("%-12s %8s %11s %15s %15s\n", "costs", "delay", "committed", "makespan (s)", "mean RT (s)")
	for _, sc := range scales {
		for _, d := range delays {
			done, span, rt := newSpread(), newSpread(), newSpread()
			for seed := int64(1990); seed <= 1994; seed++ {
				mc := batsched.DefaultMachine()
				sc.set(&mc.Control)
				mc.RetryDelay = d
				res, err := batsched.Simulate(batsched.SimConfig{
					Machine:              mc,
					Scheduler:            batsched.CHAIN(),
					Workload:             batsched.WorkloadExperiment1(mc.NumParts),
					ArrivalRate:          0.8,
					Horizon:              2_000_000,
					Seed:                 seed,
					MaxTxns:              arrivals,
					CheckSerializability: true,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				done.add(float64(res.Completed))
				span.add(res.LastCompletion.Seconds())
				rt.add(res.MeanRT)
			}
			fmt.Printf("%-12s %6.1f s %11v %15v %15v\n", sc.name, d.Seconds(), done, span, rt)
		}
	}
}

package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Summary renders the accumulated metrics as a human-readable report:
// one block per scheduler with decision counts, rates, and the headline
// statistics of each histogram.
func (m *Metrics) Summary() string {
	labels := m.Schedulers()
	var b strings.Builder
	b.WriteString("Observability summary\n")
	if len(labels) == 0 {
		b.WriteString("  (no events observed)\n")
		return b.String()
	}
	for _, label := range labels {
		sm := m.Sched(label)
		reqDec := sm.RequestDecisions()
		fmt.Fprintf(&b, "\n== %s ==\n", sm.Sched)
		fmt.Fprintf(&b, "  %-16s %d submitted; decisions: %s\n", "admissions", atomic.LoadUint64(&sm.Admits), decisionLine(sm.AdmitDecisions()))
		fmt.Fprintf(&b, "  %-16s %d submitted; decisions: %s\n", "lock requests", atomic.LoadUint64(&sm.Requests), decisionLine(reqDec))
		fmt.Fprintf(&b, "  %-16s %d commits, %d aborts, %.0f objects processed\n", "completions",
			atomic.LoadUint64(&sm.Commits), atomic.LoadUint64(&sm.Aborts), sm.Objects())
		if total := decisionTotal(reqDec); total > 0 {
			fmt.Fprintf(&b, "  %-16s blocked %.1f%%, delayed %.1f%% of %d request decisions\n", "contention",
				100*float64(reqDec["blocked"])/float64(total),
				100*float64(reqDec["delayed"])/float64(total), total)
		}
		if atomic.LoadUint64(&sm.WALAppends) > 0 || atomic.LoadUint64(&sm.Recovers) > 0 {
			fmt.Fprintf(&b, "  %-16s %d appends, %d fsync passes (batch %s); %d recoveries, replay max-par %.0f, %.2fms replaying\n",
				"wal", atomic.LoadUint64(&sm.WALAppends), atomic.LoadUint64(&sm.WALSyncs), sm.WALBatch.format("recs"),
				atomic.LoadUint64(&sm.Recovers), sm.ReplayMaxPar(), float64(atomic.LoadInt64(&sm.RecoverNS))/1e6)
		}
		if atomic.LoadUint64(&sm.PageReads) > 0 || atomic.LoadUint64(&sm.PageWrites) > 0 {
			fmt.Fprintf(&b, "  %-16s %d page reads (%.1f%% pool hits), %d writes, %d evictions, %d B read / %d B written\n",
				"storage", atomic.LoadUint64(&sm.PageReads), 100*sm.PoolHitRate(),
				atomic.LoadUint64(&sm.PageWrites),
				atomic.LoadUint64(&sm.PageEvicts),
				atomic.LoadUint64(&sm.BytesRead), atomic.LoadUint64(&sm.BytesWritten))
		}
		if atomic.LoadUint64(&sm.Resolves) > 0 || atomic.LoadUint64(&sm.CritPathChanges) > 0 {
			fmt.Fprintf(&b, "  %-16s %d edge resolutions, %d critical-path changes (max %.4g objects)\n",
				"wtpg", atomic.LoadUint64(&sm.Resolves), atomic.LoadUint64(&sm.CritPathChanges), sm.CritPathMax())
		}
		fmt.Fprintf(&b, "  %-16s %s\n", "decision cpu", sm.DecisionCPU.format("clocks"))
		if sm.DecisionWall.Count() > 0 {
			fmt.Fprintf(&b, "  %-16s %s\n", "decision wall", sm.DecisionWall.format("µs"))
		}
		fmt.Fprintf(&b, "  %-16s %s\n", "queue depth", sm.QueueDepth.format("waiters"))
		if sm.GraphSize.Count() > 0 {
			fmt.Fprintf(&b, "  %-16s %s\n", "wtpg size", sm.GraphSize.format("txns"))
		}
		fmt.Fprintf(&b, "  %-16s %s\n", "response time", sm.ResponseTime.format("s"))
	}
	return b.String()
}

func decisionTotal(counts map[string]uint64) uint64 {
	var total uint64
	for _, v := range counts {
		total += v
	}
	return total
}

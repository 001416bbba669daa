package modelcheck

import (
	"fmt"
	"slices"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// CrashReport summarizes one crash exploration (ExploreCrashes).
type CrashReport struct {
	// Prefixes is the number of reachable schedule prefixes examined.
	Prefixes int
	// CrashPoints is the number of (prefix, victim) crashes injected: at
	// every prefix, every admitted-but-uncommitted transaction is killed
	// once on a fresh replay.
	CrashPoints int
	// Problems lists every recovery violation found (empty for a correct
	// scheduler): a cyclic WTPG after the splice, the dead transaction
	// still in the graph or holding a granted lock, broken lock-table
	// invariants, or survivors wedged by the crash.
	Problems []string
	// Truncated reports that MaxPrefixes stopped the exploration early.
	Truncated bool
}

// ExploreCrashes explores every reachable schedule prefix (the same
// state space as Explore) and, at each one, crashes every admitted
// uncommitted transaction in turn — the scheduler-level image of a data
// node dying under the transaction's bulk work. Each crash runs the
// public recovery path (Scheduler.Abort, i.e. wtpg.Splice for the
// graph schedulers) on a fresh replay of the prefix and then checks:
//
//   - lock-table invariants still hold (no conflicting holders);
//   - the dead transaction is gone from the WTPG and the graph is
//     still acyclic;
//   - the dead transaction holds no granted lock;
//   - the survivors can all be driven to commitment (no wedge).
//
// MaxPrefixes bounds the exploration (0 means 100000).
func ExploreCrashes(factory sched.Factory, txns []*txn.T, maxPrefixes int) (*CrashReport, error) {
	if len(txns) == 0 {
		return nil, fmt.Errorf("modelcheck: no transactions")
	}
	for _, t := range txns {
		if t == nil {
			return nil, fmt.Errorf("modelcheck: nil transaction")
		}
	}
	if maxPrefixes <= 0 {
		maxPrefixes = 100_000
	}
	rep := &CrashReport{}
	e := &crashExplorer{
		explorer: explorer{factory: factory, txns: txns},
		max:      maxPrefixes,
		rep:      rep,
	}
	e.walk(nil)
	return rep, nil
}

type crashExplorer struct {
	explorer
	max int
	rep *CrashReport
}

// walk visits every reachable prefix, crash-checking it before
// branching — the empty prefix included, where no one is admitted yet
// and the sweep is vacuous.
func (e *crashExplorer) walk(prefix []Action) {
	if e.rep.Truncated {
		return
	}
	e.rep.Prefixes++
	if e.rep.Prefixes > e.max {
		e.rep.Truncated = true
		return
	}
	_, pos := e.replay(prefix)
	for _, t := range e.txns {
		if p := pos[t.ID]; p >= 0 && p < len(t.Steps) {
			e.crashAt(prefix, t)
		}
	}
	acts, _ := e.enabled(prefix)
	for _, a := range acts {
		e.walk(append(prefix, a))
		if e.rep.Truncated {
			return
		}
	}
}

// crashAt replays the prefix, kills the victim through the public
// recovery path and checks the post-crash state.
func (e *crashExplorer) crashAt(prefix []Action, victim *txn.T) {
	e.rep.CrashPoints++
	s, pos := e.replay(prefix)
	now := event.Time(len(prefix) + 1)
	s.Abort(victim, now)
	where := fmt.Sprintf("crash of %v after %v", victim.ID, prefix)
	if ci, ok := s.(interface{ CheckInvariants() error }); ok {
		if err := ci.CheckInvariants(); err != nil {
			e.problem("%s: lock invariants: %v", where, err)
			return
		}
	}
	if gh, ok := s.(sched.GraphHolder); ok && gh.Graph() != nil {
		g := gh.Graph()
		if g.Has(victim.ID) {
			e.problem("%s: dead transaction still in the WTPG", where)
			return
		}
		if _, err := g.CriticalPath(); err != nil {
			e.problem("%s: WTPG after splice: %v", where, err)
			return
		}
	}
	if lh, ok := s.(interface {
		LockHolders(txn.PartitionID) []txn.ID
	}); ok {
		for _, t := range e.txns {
			for _, p := range t.Partitions() {
				if slices.Contains(lh.LockHolders(p), victim.ID) {
					e.problem("%s: dead transaction still holds a lock on P%d", where, p)
					return
				}
			}
		}
	}
	if !e.drain(s, pos, victim.ID, now) {
		e.problem("%s: survivors wedged", where)
	}
}

// drain greedily drives every survivor to commitment on the post-crash
// scheduler: repeated sweeps granting whatever is grantable until
// everything commits (true) or a sweep makes no progress (false — the
// crash stranded someone).
func (e *crashExplorer) drain(s sched.Scheduler, pos map[txn.ID]int, dead txn.ID, now event.Time) bool {
	for {
		progressed, remaining := false, false
		for _, t := range e.txns {
			if t.ID == dead {
				continue
			}
			p := pos[t.ID]
			if p == len(t.Steps) {
				continue
			}
			remaining = true
			now++
			if p < 0 {
				if out := s.Admit(t, now); out.Decision == sched.Granted {
					pos[t.ID] = 0
					progressed = true
				}
				continue
			}
			if out := s.Request(t, p, now); out.Decision == sched.Granted {
				s.ObjectDone(t, t.Steps[p].Cost, now)
				pos[t.ID] = p + 1
				if pos[t.ID] == len(t.Steps) {
					s.Commit(t, now)
				}
				progressed = true
			}
		}
		if !remaining {
			return true
		}
		if !progressed {
			return false
		}
	}
}

func (e *crashExplorer) problem(format string, args ...any) {
	e.rep.Problems = append(e.rep.Problems, fmt.Sprintf(format, args...))
}

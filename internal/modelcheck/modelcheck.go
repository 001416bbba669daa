// Package modelcheck exhaustively explores every schedule a scheduler
// can produce for a small set of transactions, checking the properties
// the paper claims for all of them:
//
//   - no wedge: whenever work remains, some pending request is grantable
//     (the cautious schedulers are deadlock-free without aborting);
//   - conflict serializability of every complete schedule;
//   - termination: every exploration path commits every transaction.
//
// The exploration model matches the simulator's essentials while
// abstracting time away: transactions are actors; at each state the
// checker branches over every actor whose next action can make progress
// (admission or a lock grant). A refused action (blocked/delayed/
// admission-rejected) is not a branch — re-submitting it in the same
// state is a no-op, so it becomes grantable only after some other actor
// progresses, exactly like the simulator's wake/retry loop. Scheduler
// state is reconstructed per path by replaying the action prefix, which
// keeps the checker independent of scheduler internals.
package modelcheck

import (
	"fmt"

	"batsched/internal/core/sched"
	"batsched/internal/event"
	"batsched/internal/txn"
)

// Report summarizes one exploration.
type Report struct {
	// Paths is the number of complete schedules explored.
	Paths int
	// States is the number of action evaluations performed.
	States int
	// Wedges lists action prefixes from which no actor could progress
	// (empty for a correct scheduler).
	Wedges [][]Action
	// NonSerializable lists complete schedules whose conflict graph has
	// a cycle (empty for a correct scheduler).
	NonSerializable [][]Action
	// Truncated reports that MaxPaths stopped the exploration early.
	Truncated bool
}

// Action is one progress event of a schedule prefix.
type Action struct {
	Txn txn.ID
	// Step is -1 for the admission action, otherwise the step granted.
	Step int
}

// String renders "T1:admit" or "T1:s0".
func (a Action) String() string {
	if a.Step < 0 {
		return fmt.Sprintf("%v:admit", a.Txn)
	}
	return fmt.Sprintf("%v:s%d", a.Txn, a.Step)
}

// Explore runs the exhaustive exploration. MaxPaths bounds the number of
// complete schedules (0 means 100000). The factory is invoked once per
// replay, so the scheduler must be deterministic — all of this
// repository's schedulers are.
func Explore(factory sched.Factory, txns []*txn.T, maxPaths int) (*Report, error) {
	if len(txns) == 0 {
		return nil, fmt.Errorf("modelcheck: no transactions")
	}
	for _, t := range txns {
		if t == nil {
			return nil, fmt.Errorf("modelcheck: nil transaction")
		}
	}
	if maxPaths <= 0 {
		maxPaths = 100_000
	}
	r := &Report{}
	e := &explorer{factory: factory, txns: txns, maxPaths: maxPaths, report: r}
	e.dfs(nil)
	return r, nil
}

type explorer struct {
	factory  sched.Factory
	txns     []*txn.T
	maxPaths int
	report   *Report
}

// replay rebuilds scheduler state for a prefix and returns it along with
// each transaction's progress: -1 = not admitted, otherwise next step
// index (len(steps) = fully granted, committed on reaching it).
func (e *explorer) replay(prefix []Action) (sched.Scheduler, map[txn.ID]int) {
	// Time is irrelevant to correctness; advance a fake clock so KeepTime
	// caching exercises both fresh and cached paths.
	s := e.factory.New(sched.Costs{KeepTime: 2})
	pos := make(map[txn.ID]int, len(e.txns))
	byID := make(map[txn.ID]*txn.T, len(e.txns))
	for _, t := range e.txns {
		pos[t.ID] = -1
		byID[t.ID] = t
	}
	now := event.Time(0)
	for _, a := range prefix {
		now++
		t := byID[a.Txn]
		if a.Step < 0 {
			out := s.Admit(t, now)
			if out.Decision != sched.Granted {
				panic(fmt.Sprintf("modelcheck: replay diverged: admit %v = %v", a.Txn, out.Decision))
			}
			pos[t.ID] = 0
			continue
		}
		out := s.Request(t, a.Step, now)
		if out.Decision != sched.Granted {
			panic(fmt.Sprintf("modelcheck: replay diverged: %v step %d = %v", a.Txn, a.Step, out.Decision))
		}
		// Bulk processing completes; weights drain to due(next steps).
		s.ObjectDone(t, t.Steps[a.Step].Cost, now)
		pos[t.ID] = a.Step + 1
		if pos[t.ID] == len(t.Steps) {
			s.Commit(t, now)
		}
	}
	return s, pos
}

// enabled returns the actions that can progress after prefix and the
// number of unfinished transactions, probing each on a fresh replay: even
// a refused request may mutate scheduler caches (§3.4), a grant does.
func (e *explorer) enabled(prefix []Action) (acts []Action, pending int) {
	_, pos := e.replay(prefix)
	now := event.Time(len(prefix) + 1)
	for _, t := range e.txns {
		p := pos[t.ID]
		if p == len(t.Steps) {
			continue
		}
		pending++
		s, _ := e.replay(prefix)
		if p < 0 {
			if s.Admit(t, now).Decision == sched.Granted {
				acts = append(acts, Action{Txn: t.ID, Step: -1})
			}
		} else if s.Request(t, p, now).Decision == sched.Granted {
			acts = append(acts, Action{Txn: t.ID, Step: p})
		}
	}
	return acts, pending
}

// dfs explores all continuations of a prefix.
func (e *explorer) dfs(prefix []Action) {
	if e.report.Truncated {
		return
	}
	enabled, pending := e.enabled(prefix)
	e.report.States += pending
	if pending == 0 {
		e.report.Paths++
		if e.report.Paths >= e.maxPaths {
			e.report.Truncated = true
		}
		// Every transaction committed: certify the grant order.
		h, steps := NewHistory(), make(map[txn.ID][]txn.Step, len(e.txns))
		for _, t := range e.txns {
			steps[t.ID] = t.Steps
			h.Commit(t.ID)
		}
		for _, a := range prefix {
			if a.Step >= 0 {
				s := steps[a.Txn][a.Step]
				h.Grant(a.Txn, s.Part, s.Mode)
			}
		}
		if h.Certify(Evidence{}) != nil {
			e.report.NonSerializable = append(e.report.NonSerializable, append([]Action(nil), prefix...))
		}
		return
	}
	if len(enabled) == 0 {
		e.report.Wedges = append(e.report.Wedges, append([]Action(nil), prefix...))
		return
	}
	for _, a := range enabled {
		e.dfs(append(prefix, a))
		if e.report.Truncated {
			return
		}
	}
}

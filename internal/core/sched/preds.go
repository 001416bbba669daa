package sched

import "batsched/internal/txn"

// Predecessors returns id's direct resolved WTPG predecessors under s —
// the transactions id must wait for, as currently resolved — or nil when
// s maintains no WTPG (NODC, ASL) or id is unknown to it. This is the
// stable accessor the WAL uses to build dependency records; callers must
// not reach into scheduler internals. The slice is freshly allocated and
// sorted by transaction id (see wtpg.Graph.Predecessors).
//
// Decorated schedulers work transparently: sched.Observed forwards
// GraphHolder, so the accessor sees through the tracing wrapper.
func Predecessors(s Scheduler, id txn.ID) []txn.ID {
	gh, ok := s.(GraphHolder)
	if !ok {
		return nil
	}
	g := gh.Graph()
	if g == nil {
		return nil
	}
	return g.Predecessors(id)
}

package sched

import (
	"sort"

	"batsched/internal/txn"
)

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

// PredecessorsUnion returns the union of id's direct resolved WTPG
// predecessors across several schedulers, sorted by transaction id with
// duplicates removed. The sharded live controller registers a
// cross-shard transaction in every shard its footprint touches, so its
// full dependency set — what the WAL Commit record must carry —
// is the union of what each shard's graph resolved. Schedulers without
// a WTPG contribute nothing; the caller must hold whatever locks make
// the individual graphs stable (the shard locks, in canonical order).
func PredecessorsUnion(ss []Scheduler, id txn.ID) []txn.ID {
	var out []txn.ID
	for _, s := range ss {
		gh, ok := s.(GraphHolder)
		if !ok {
			continue
		}
		g := gh.Graph()
		if g == nil {
			continue
		}
		out = g.AppendPredecessors(out, id)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

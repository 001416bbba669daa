package sched

import "batsched/internal/txn"

// forgetRefusals clears a C2PL-family scheduler's refusal memo, so its
// next Request decides from scratch.
func forgetRefusals(s Scheduler) {
	b := &s.(*c2pl).wtpgBase
	for _, id := range b.graph.Nodes() {
		if r, ok := b.live.Get(id); ok {
			r.refused = refusal{}
		}
	}
}

// refusalOf returns the refusal memo a C2PL-family scheduler keeps for
// id; the zero refusal when id is not live or was never refused.
func refusalOf(s Scheduler, id txn.ID) refusal {
	if r, ok := s.(*c2pl).live.Get(id); ok {
		return r.refused
	}
	return refusal{}
}

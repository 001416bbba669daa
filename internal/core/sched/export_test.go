package sched

import "batsched/internal/txn"

// forgetRefusals clears a C2PL-family scheduler's refusal memo, so its
// next Request decides from scratch.
func forgetRefusals(s Scheduler) {
	s.(*c2pl).live.Range(func(_ txn.ID, r *txnRec) bool {
		r.refused = refusal{}
		return true
	})
}

// refusalOf returns the refusal memo a C2PL-family scheduler keeps for
// id; the zero refusal when id is not live or was never refused.
func refusalOf(s Scheduler, id txn.ID) refusal {
	if r, ok := s.(*c2pl).live.Get(id); ok {
		return r.refused
	}
	return refusal{}
}

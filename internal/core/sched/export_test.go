package sched

// forgetRefusals clears a C2PL-family scheduler's refusal memo, so its
// next Request decides from scratch.
func forgetRefusals(s Scheduler) { clear(s.(*c2pl).refused) }

package sched

import (
	"batsched/internal/event"
	"batsched/internal/txn"
)

// nodc is the NODC ("NO Data Contention") scheduler: it grants any lock
// at any time, ignoring conflicts entirely. The paper uses it to expose
// the resource-contention-only upper bound of throughput; its schedules
// are not serializable by design.
type nodc struct{}

// NewNODC returns the NODC upper-bound scheduler.
func NewNODC() Scheduler { return nodc{} }

func (nodc) Name() string { return "NODC" }

func (nodc) Admit(*txn.T, event.Time) Outcome { return Outcome{Decision: Granted} }

func (nodc) Request(*txn.T, int, event.Time) Outcome { return Outcome{Decision: Granted} }

func (nodc) ObjectDone(*txn.T, float64, event.Time) {}

func (nodc) Commit(*txn.T, event.Time) ([]txn.PartitionID, event.Time) { return nil, 0 }

// Abort releases nothing: NODC holds no locks and keeps no state.
func (nodc) Abort(*txn.T, event.Time) ([]txn.PartitionID, event.Time) { return nil, 0 }

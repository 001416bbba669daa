package sim

import (
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

// fixed replays a fixed list of transactions; after the list is exhausted
// it panics. The hand-computed schedules of this package's tests are
// built on it.
type fixed struct {
	Label string
	Txns  []*txn.T
	next  int
}

func (f *fixed) Name() string { return f.Label }

func (f *fixed) Next(id txn.ID, rng *rand.Rand) *txn.T {
	if f.next >= len(f.Txns) {
		panic("sim: fixed workload exhausted")
	}
	t := f.Txns[f.next]
	f.next++
	// Re-identify so simulator-assigned ids stay unique.
	return &txn.T{ID: id, Steps: t.Steps, Declared: t.Declared}
}

func TestFixedGenerator(t *testing.T) {
	a := txn.New(99, []txn.Step{{Mode: txn.Read, Part: 1, Cost: 2}})
	f := &fixed{Label: "fixed", Txns: []*txn.T{a}}
	got := f.Next(7, rand.New(rand.NewSource(1)))
	if got.ID != 7 || got.Steps[0] != a.Steps[0] {
		t.Errorf("fixed.Next = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("exhausted fixed workload did not panic")
		}
	}()
	f.Next(8, nil)
}

// Package txn implements the paper's transaction model (§2.2).
//
// A Bulk Access Transaction (BAT) is a sequential execution of steps; each
// step reads or writes exactly one partition and carries an I/O demand
// ("cost") measured in objects — the paper's unit of bulk data processing
// (e.g. 50 disk tracks). A read of fraction a of partition P costs a·|P|
// objects; a bulk update of fraction a costs 2a·|P| (read before write).
// Costs may therefore be fractional.
//
// Every transaction pre-declares its full step sequence and per-step I/O
// demands at start; schedulers build the WTPG from these declarations. The
// declared demand may differ from the true demand (Experiment 4's error
// model), so a Transaction carries both.
package txn

import (
	"fmt"
	"strings"
)

// ID identifies a transaction. IDs are assigned by the simulator and are
// unique within a run. The zero ID is reserved.
type ID int64

func (id ID) String() string { return fmt.Sprintf("T%d", int64(id)) }

// PartitionID identifies a partition locking-granule.
type PartitionID int

func (p PartitionID) String() string { return fmt.Sprintf("P%d", int(p)) }

// Mode is a lock/access mode: shared for reads, exclusive for writes.
type Mode int

const (
	// Read acquires a shared (S) lock.
	Read Mode = iota
	// Write acquires an exclusive (X) lock.
	Write
)

// String returns "r" or "w", mirroring the paper's notation.
func (m Mode) String() string {
	if m == Write {
		return "w"
	}
	return "r"
}

// Conflicts reports whether two access modes conflict on the same granule:
// an X lock conflicts with either an S or an X lock.
func (m Mode) Conflicts(other Mode) bool { return m == Write || other == Write }

// Step is one read or write access to a partition.
type Step struct {
	Mode Mode
	Part PartitionID
	// Cost is the true I/O demand of the step in objects (costof(s)).
	Cost float64
}

// String renders the step in the paper's "r(P3:1.5)" notation.
func (s Step) String() string {
	return fmt.Sprintf("%s(%s:%s)", s.Mode, s.Part, trimFloat(s.Cost))
}

// Conflicts reports whether this step's lock conflicts with another step's
// lock, i.e. they touch the same partition and at least one writes.
func (s Step) Conflicts(o Step) bool {
	return s.Part == o.Part && s.Mode.Conflicts(o.Mode)
}

// T is a transaction: an identifier plus a declared sequence of steps.
//
// Declared holds the I/O demands the transaction announced at start — the
// values the schedulers see. Steps[i].Cost holds the true demand that the
// simulation actually executes. They coincide unless an error model
// perturbed the declarations.
type T struct {
	ID       ID
	Steps    []Step
	Declared []float64
}

// New builds a transaction whose declared demands equal its true demands.
func New(id ID, steps []Step) *T {
	d := make([]float64, len(steps))
	for i, s := range steps {
		d[i] = s.Cost
	}
	return &T{ID: id, Steps: steps, Declared: d}
}

// NewDeclared builds a transaction with explicitly declared demands, one
// per step. It panics if the lengths disagree or a declaration is negative.
func NewDeclared(id ID, steps []Step, declared []float64) *T {
	if len(declared) != len(steps) {
		panic(fmt.Sprintf("txn: %d declarations for %d steps", len(declared), len(steps)))
	}
	for i, c := range declared {
		if c < 0 {
			panic(fmt.Sprintf("txn: negative declared cost %g at step %d", c, i))
		}
	}
	return &T{ID: id, Steps: steps, Declared: declared}
}

// Due returns due(s_i) computed from the declared demands:
//
//	due(s_N) = costof(s_N)
//	due(s_i) = costof(s_i) + due(s_{i+1})
//
// i.e. the number of objects the transaction must still access from the
// start of step i until its commitment. Due(0) is the initial w(T0→Ti).
func (t *T) Due(i int) float64 {
	if i < 0 || i >= len(t.Steps) {
		panic(fmt.Sprintf("txn: Due(%d) of %d-step transaction", i, len(t.Steps)))
	}
	sum := 0.0
	for j := len(t.Steps) - 1; j >= i; j-- {
		sum += t.Declared[j]
	}
	return sum
}

// DeclaredTotal is the declared end-to-end demand, due(s_0).
func (t *T) DeclaredTotal() float64 {
	if len(t.Steps) == 0 {
		return 0
	}
	return t.Due(0)
}

// TrueTotal is the true end-to-end demand in objects.
func (t *T) TrueTotal() float64 {
	sum := 0.0
	for _, s := range t.Steps {
		sum += s.Cost
	}
	return sum
}

// MaxDemand bounds every declared and true cost of one step, in objects:
// 2^40, about 10^12. A sum of such costs over everything a run holds (a
// transaction's w(T0→Ti), a WTPG edge weight, a chain's path lengths in
// chainopt) then stays finite, so the chain optimizer cannot overflow to
// +Inf, and a cost stays exact under the data node's one-object quanta,
// which would never finish a cost above 2^53.
const MaxDemand = 1 << 40

// ValidDemand reports whether c is a valid count of objects: in
// [0, MaxDemand] (NaN fails both comparisons).
func ValidDemand(c float64) bool { return c >= 0 && c <= MaxDemand }

// CheckDemands returns an error unless every declared and true cost of t
// is a ValidDemand; their sums are then finite. It is the one check on
// demands: the schedulers, the WTPG and the chain optimizer trust them,
// so live.Controller.Admit and sim.Run (for each arrival) call it, and
// ParsePattern applies ValidDemand to a pattern's costs. It allocates
// nothing on a valid transaction.
func (t *T) CheckDemands() error {
	if len(t.Declared) != len(t.Steps) {
		return fmt.Errorf("txn: %v declares %d demands for %d steps", t.ID, len(t.Declared), len(t.Steps))
	}
	for i, s := range t.Steps {
		if !ValidDemand(s.Cost) || !ValidDemand(t.Declared[i]) {
			return fmt.Errorf("txn: %v step %d: cost %g, declared %g; want both in [0, %g]", t.ID, i, s.Cost, t.Declared[i], float64(MaxDemand))
		}
	}
	return nil
}

// Partitions returns the distinct partitions the transaction touches, in
// first-access order.
func (t *T) Partitions() []PartitionID {
	seen := make(map[PartitionID]bool, len(t.Steps))
	var out []PartitionID
	for _, s := range t.Steps {
		if !seen[s.Part] {
			seen[s.Part] = true
			out = append(out, s.Part)
		}
	}
	return out
}

// LockMode returns the strongest mode the transaction declares on part:
// Write if any declared step writes it, else Read. The second result is
// false when the transaction never touches the partition. The paper's
// lock-declarations are per-granule: a transaction reading then writing a
// partition needs the X lock for the whole span it holds locks.
func (t *T) LockMode(part PartitionID) (Mode, bool) {
	mode, found := Read, false
	for _, s := range t.Steps {
		if s.Part != part {
			continue
		}
		found = true
		if s.Mode == Write {
			mode = Write
		}
	}
	return mode, found
}

// String renders the transaction in the paper's Figure-1 style:
// "T1: r(P0:1) -> r(P1:3) -> w(P0:1)".
func (t *T) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", t.ID)
	for i, s := range t.Steps {
		if i > 0 {
			b.WriteString(" ->")
		}
		b.WriteString(" ")
		b.WriteString(s.String())
	}
	return b.String()
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

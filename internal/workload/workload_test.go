package workload

import (
	"math"
	"math/rand"
	"testing"

	"batsched/internal/txn"
)

func TestPatternsMatchPaper(t *testing.T) {
	if got := Pattern1.String(); got != "r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)" {
		t.Errorf("Pattern1 = %q", got)
	}
	if got := Pattern2.String(); got != "r(B:5) -> w(F1:1) -> w(F2:1)" {
		t.Errorf("Pattern2 = %q", got)
	}
	if got := Pattern3.String(); got != "r(B:4) -> w(F1:1) -> w(F2:2)" {
		t.Errorf("Pattern3 = %q", got)
	}
}

func TestExperiment1Binding(t *testing.T) {
	g := Experiment1(16)
	rng := rand.New(rand.NewSource(1))
	seen := map[txn.PartitionID]bool{}
	for i := 0; i < 500; i++ {
		tx := g.Next(txn.ID(i+1), rng)
		if len(tx.Steps) != 4 {
			t.Fatalf("steps = %v", tx.Steps)
		}
		f1, f2 := tx.Steps[0].Part, tx.Steps[1].Part
		if f1 == f2 {
			t.Fatalf("F1 == F2 == %v", f1)
		}
		if tx.Steps[2].Part != f1 || tx.Steps[3].Part != f2 {
			t.Fatalf("write steps bind wrong partitions: %v", tx)
		}
		for _, p := range []txn.PartitionID{f1, f2} {
			if p < 0 || int(p) >= 16 {
				t.Fatalf("partition %v out of range", p)
			}
			seen[p] = true
		}
		if tx.DeclaredTotal() != 7.2 {
			t.Fatalf("declared total = %g, want 7.2", tx.DeclaredTotal())
		}
	}
	if len(seen) != 16 {
		t.Errorf("only %d/16 partitions used in 500 draws", len(seen))
	}
}

func TestExperiment2Binding(t *testing.T) {
	l := HotSetLayout{NumReadOnly: 8, NumHots: 4}
	if l.NumParts() != 12 {
		t.Fatalf("NumParts = %d", l.NumParts())
	}
	g := Experiment2(l)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		tx := g.Next(txn.ID(i+1), rng)
		b, f1, f2 := tx.Steps[0].Part, tx.Steps[1].Part, tx.Steps[2].Part
		if int(b) >= 8 {
			t.Fatalf("B = %v not read-only", b)
		}
		if int(f1) < 8 || int(f1) >= 12 || int(f2) < 8 || int(f2) >= 12 {
			t.Fatalf("hot partitions out of range: %v %v", f1, f2)
		}
		if f1 == f2 {
			t.Fatalf("F1 == F2")
		}
		if tx.Steps[0].Mode != txn.Read || tx.Steps[1].Mode != txn.Write {
			t.Fatalf("modes wrong: %v", tx)
		}
	}
}

func TestExperiment3Costs(t *testing.T) {
	g := Experiment3(HotSetLayout{NumReadOnly: 8, NumHots: 8})
	tx := g.Next(1, rand.New(rand.NewSource(3)))
	want := []float64{4, 1, 2}
	for i, c := range want {
		if tx.Steps[i].Cost != c {
			t.Errorf("step %d cost = %g, want %g", i, tx.Steps[i].Cost, c)
		}
	}
}

func TestDeclarationErrorModel(t *testing.T) {
	base := Experiment1(16)
	// sigma = 0 wraps but produces exact declarations, consuming the same
	// random draws as any other sigma (paired comparisons).
	zero := WithDeclarationError(Experiment1(16), 0)
	r0 := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		tx := zero.Next(txn.ID(i+1), r0)
		for j, s := range tx.Steps {
			if tx.Declared[j] != s.Cost {
				t.Fatalf("sigma=0 perturbed declaration: %g != %g", tx.Declared[j], s.Cost)
			}
		}
	}
	g := WithDeclarationError(base, 0.5)
	rng := rand.New(rand.NewSource(4))
	var sumRel, n float64
	negSeen := false
	for i := 0; i < 2000; i++ {
		tx := g.Next(txn.ID(i+1), rng)
		for j, s := range tx.Steps {
			if s.Cost != Pattern1.Steps[j].Cost {
				t.Fatalf("true cost perturbed: %g != %g", s.Cost, Pattern1.Steps[j].Cost)
			}
			if tx.Declared[j] < 0 {
				t.Fatalf("negative declared cost %g", tx.Declared[j])
			}
			rel := tx.Declared[j]/s.Cost - 1
			sumRel += rel
			n++
			if rel < 0 {
				negSeen = true
			}
		}
	}
	if mean := sumRel / n; math.Abs(mean) > 0.05 {
		t.Errorf("relative error mean = %g, want ≈0", mean)
	}
	if !negSeen {
		t.Error("no under-declarations in 2000 draws")
	}
}

func TestDeclarationErrorClampsAtZero(t *testing.T) {
	g := WithDeclarationError(Experiment1(16), 5) // huge sigma: many x ≤ -1
	rng := rand.New(rand.NewSource(5))
	zero := false
	for i := 0; i < 200 && !zero; i++ {
		tx := g.Next(txn.ID(i+1), rng)
		for _, d := range tx.Declared {
			if d == 0 {
				zero = true
			}
		}
	}
	if !zero {
		t.Error("no clamped-to-zero declarations at sigma=5")
	}
}

// TestErrorModelPairedStreams verifies that different sigmas consume the
// same random draws, so sweeps across sigma compare the same workload
// realization (arrivals, bindings) with only declarations differing.
func TestErrorModelPairedStreams(t *testing.T) {
	a := WithDeclarationError(Experiment1(16), 0)
	b := WithDeclarationError(Experiment1(16), 1.0)
	ra := rand.New(rand.NewSource(9))
	rb := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		ta := a.Next(txn.ID(i+1), ra)
		tb := b.Next(txn.ID(i+1), rb)
		for j := range ta.Steps {
			if ta.Steps[j] != tb.Steps[j] {
				t.Fatalf("draw %d step %d diverged: %v vs %v", i, j, ta.Steps[j], tb.Steps[j])
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1 := Experiment1(16)
	g2 := Experiment1(16)
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		a := g1.Next(txn.ID(i), r1)
		b := g2.Next(txn.ID(i), r2)
		for j := range a.Steps {
			if a.Steps[j] != b.Steps[j] {
				t.Fatalf("draw %d differs: %v vs %v", i, a, b)
			}
		}
	}
}

func TestUniformPattern(t *testing.T) {
	p := txn.MustParsePattern("custom", "r(H:6) -> w(M1:1) -> w(M2:1)")
	g := UniformPattern(p, 12)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		tx := g.Next(txn.ID(i+1), rng)
		seen := map[txn.PartitionID]bool{}
		h, m1, m2 := tx.Steps[0].Part, tx.Steps[1].Part, tx.Steps[2].Part
		for _, part := range []txn.PartitionID{h, m1, m2} {
			if int(part) < 0 || int(part) >= 12 {
				t.Fatalf("partition %v out of range", part)
			}
			if seen[part] {
				t.Fatalf("variables bound to the same partition: %v", tx)
			}
			seen[part] = true
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("too many variables accepted")
		}
	}()
	UniformPattern(p, 2)
}

package lock

import (
	"testing"

	"batsched/internal/txn"
)

// benchTable registers n transactions of Pattern1 shape over 16
// partitions.
func benchTable(n int) *Table {
	tb := NewTable()
	for i := 0; i < n; i++ {
		f1 := txn.PartitionID(i % 16)
		f2 := txn.PartitionID((i + 7) % 16)
		t := txn.New(txn.ID(i+1), []txn.Step{
			{Mode: txn.Read, Part: f1, Cost: 1},
			{Mode: txn.Read, Part: f2, Cost: 5},
			{Mode: txn.Write, Part: f1, Cost: 0.2},
			{Mode: txn.Write, Part: f2, Cost: 1},
		})
		if err := tb.Declare(t); err != nil {
			panic(err)
		}
	}
	return tb
}

func BenchmarkConflictingDecls500(b *testing.B) {
	tb := benchTable(500)
	var buf []Decl
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tb.ConflictingDecls(buf[:0], 1, 0, txn.Write)
	}
}

func BenchmarkIsBlocked500(b *testing.B) {
	tb := benchTable(500)
	_ = tb.Grant(1, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.IsBlocked(2, 0, txn.Write)
	}
}

func BenchmarkDeclareRelease(b *testing.B) {
	tb := benchTable(200)
	t := txn.New(9999, []txn.Step{
		{Mode: txn.Read, Part: 0, Cost: 1},
		{Mode: txn.Write, Part: 5, Cost: 1},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.Declare(t); err != nil {
			b.Fatal(err)
		}
		tb.Release(t.ID)
	}
}

func BenchmarkWouldExceedK500(b *testing.B) {
	tb := benchTable(500)
	t := txn.New(9999, []txn.Step{
		{Mode: txn.Read, Part: 3, Cost: 1},
		{Mode: txn.Write, Part: 11, Cost: 1},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.WouldExceedK(t, 2)
	}
}

// BenchmarkLockCycle is one transaction's whole life in a populated
// table: Declare, a Grant per step, Release.
func BenchmarkLockCycle(b *testing.B) {
	tb := benchTable(200)
	t := txn.New(9999, []txn.Step{
		{Mode: txn.Read, Part: 2, Cost: 5},
		{Mode: txn.Write, Part: 6, Cost: 1},
		{Mode: txn.Write, Part: 2, Cost: 1},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.Declare(t); err != nil {
			b.Fatal(err)
		}
		for j, s := range t.Steps {
			if err := tb.Grant(t.ID, s.Part, j); err != nil {
				b.Fatal(err)
			}
		}
		tb.Release(t.ID)
	}
}

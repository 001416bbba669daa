package storage

import (
	"testing"

	"batsched/internal/txn"
)

// benchFrames caches the whole benchmark partition: the pool-hit path.
// BenchmarkStorageScanCold is the starved-pool path, the kernel of the
// benchmark's scan-cold workload.
const benchFrames = 64

// BenchmarkStorageScan measures full-partition scan throughput through
// the buffer pool: one partition pre-loaded with effect tuples, scanned
// end to end per iteration. b.SetBytes reports real MB/s (page bytes
// held by the partition, every one inspected per scan).
func BenchmarkStorageScan(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, 1, WithPoolFrames(benchFrames))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const tuples = 4096
	for i := 0; i < tuples; i++ {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(i+1), 0, 0, 64)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(st.NumPages(0)) * int64(st.pageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := st.ScanCount(0)
		if err != nil {
			b.Fatal(err)
		}
		if n != tuples {
			b.Fatalf("scan found %d tuples, want %d", n, tuples)
		}
	}
	b.StopTimer()
	ps := st.Stats()
	b.ReportMetric(100*ps.HitRate(), "hit%")
}

// BenchmarkStorageScanCold is BenchmarkStorageScan with a pool a tenth
// of the partition: every page of every scan is a miss — a victim
// claimed, a read from the page cache, a CRC verify. b.SetBytes reports
// the MB/s the run path (Pool.pinRun) moves, and the reported
// pages/read how many pages one backend call carries.
func BenchmarkStorageScanCold(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, 1, WithPoolFrames(benchFrames))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	tuples := 0
	for st.NumPages(0) < 10*benchFrames {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(tuples+1), 0, 0, 64)); err != nil {
			b.Fatal(err)
		}
		tuples++
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	before := st.Stats()
	b.SetBytes(int64(st.NumPages(0)) * int64(st.pageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := st.ScanCount(0)
		if err != nil {
			b.Fatal(err)
		}
		if n != tuples {
			b.Fatalf("scan found %d tuples, want %d", n, tuples)
		}
	}
	b.StopTimer()
	ps := st.Stats()
	b.ReportMetric(100*float64(ps.Hits-before.Hits)/float64(b.N)/float64(st.NumPages(0)), "hit%")
	b.ReportMetric(float64(ps.Misses-before.Misses)/float64(ps.ReadCalls-before.ReadCalls), "pages/read")
}

// BenchmarkStorageInsert measures the insert path: effect-sized tuples
// appended to one partition through the pool, with the page-allocation
// and dirty write-back costs included via a periodic flush.
func BenchmarkStorageInsert(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, 1, WithPoolFrames(benchFrames))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Insert(0, EncodeEffect(txn.ID(i+1), 0, 0, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

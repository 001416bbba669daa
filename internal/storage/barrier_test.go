package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// TestWriteBarrier drives each path by which a page image reaches disk —
// eviction, the release of a dirty overflow frame, the FlushPartition
// test probe, Close — with exactly one dirty page, and checks the
// WAL-before-pages rule: the barrier runs while the heap file is still
// untouched, and a failing barrier leaves the file untouched and a
// cached frame dirty.
func TestWriteBarrier(t *testing.T) {
	const pageSize, frames, pages = 512, 4, 6
	errLog := errors.New("log not forced")
	dirtyKey := pageKey{0, 0}

	// dirty rewrites page 0's first tuple in place and leaves the page
	// cached, dirty and unpinned.
	dirty := func(t *testing.T, st *Store) {
		t.Helper()
		pool := st.pool
		fr, err := pool.Get(dirtyKey, false)
		if err != nil {
			t.Fatal(err)
		}
		tup, _ := fr.Page().Get(0) // aliases the frame
		copy(tup, bytes.Repeat([]byte{'!'}, len(tup)))
		pool.Unpin(fr, true)
	}
	paths := []struct {
		name string
		// write makes the store write page 0 (and nothing else) back.
		write func(t *testing.T, st *Store) error
		// cached reports whether the dirty image lives in a pool frame a
		// refused write must leave dirty (the overflow frame is discarded).
		cached bool
	}{
		{"eviction", func(t *testing.T, st *Store) error {
			dirty(t, st)
			// Touch pages until the clock hand reaches page 0's frame.
			for pg := uint32(1); pg < pages; pg++ {
				if err := st.TouchPage(0, pg); err != nil {
					return err
				}
			}
			return nil
		}, true},
		{"overflow release", func(t *testing.T, st *Store) error {
			pool := st.pool
			var held []*Frame
			for pg := uint32(1); pg <= frames; pg++ {
				fr, err := pool.Get(pageKey{0, pg}, false)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, fr)
			}
			ov, err := pool.Get(dirtyKey, false)
			if err != nil || !ov.transient {
				t.Fatalf("expected a transient frame with every pooled frame pinned (err %v)", err)
			}
			tup, _ := ov.Page().Get(0) // aliases the frame
			copy(tup, bytes.Repeat([]byte{'!'}, len(tup)))
			pool.Unpin(ov, true) // the write-back; its error is latched
			for _, fr := range held {
				pool.Unpin(fr, false)
			}
			return st.Flush() // surfaces the latched error
		}, false},
		{"FlushPartition", func(t *testing.T, st *Store) error {
			dirty(t, st)
			return st.FlushPartition(0)
		}, true},
		{"Close", func(t *testing.T, st *Store) error {
			dirty(t, st)
			return st.Close()
		}, true},
	}
	for _, path := range paths {
		for _, fail := range []bool{false, true} {
			name := path.name + "/barrier passes"
			if fail {
				name = path.name + "/barrier fails"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				st := mustOpen(t, dir, 1, WithPageSize(pageSize), WithPoolFrames(frames))
				tuple := bytes.Repeat([]byte{'.'}, 100)
				for st.NumPages(0) < pages {
					if _, err := st.Insert(0, tuple); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				before, err := os.ReadFile(st.partPath(0))
				if err != nil {
					t.Fatal(err)
				}
				calls, early := 0, 0
				st.SetWriteBarrier(func() error {
					calls++
					if now, _ := os.ReadFile(st.partPath(0)); bytes.Equal(now, before) {
						early++
					}
					if fail {
						return errLog
					}
					return nil
				})
				err = path.write(t, st)
				after, rerr := os.ReadFile(st.partPath(0))
				if rerr != nil {
					t.Fatal(rerr)
				}
				if calls == 0 {
					t.Fatal("page written without consulting the write barrier")
				}
				if early == 0 {
					t.Fatal("no barrier call preceded the page write")
				}
				if !fail {
					if err != nil {
						t.Fatal(err)
					}
					if bytes.Equal(after, before) {
						t.Fatal("setup: the path under test wrote nothing")
					}
					return
				}
				if !errors.Is(err, errLog) {
					t.Fatalf("refused write reported %v, want the barrier's error", err)
				}
				if !bytes.Equal(after, before) {
					t.Fatal("heap file changed although the barrier failed")
				}
				if path.cached {
					s := st.pool.stripeOf(dirtyKey)
					if fr := s.lookup(dirtyKey); fr == nil || !fr.valid || !fr.dirty {
						t.Fatalf("refused write did not leave page 0 cached and dirty: %+v", fr)
					}
				}
				st.Close() // refused too; nothing to release but the descriptors
			})
		}
	}
}

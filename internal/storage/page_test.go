package storage

import (
	"bytes"
	"testing"
	"testing/quick"
)

// randTuples turns raw quick-check bytes into a bounded tuple workload.
func randTuples(data []byte, maxLen int) [][]byte {
	var tuples [][]byte
	for i := 0; i < len(data); {
		n := 1 + int(data[i])%maxLen
		i++
		end := i + n
		if end > len(data) {
			end = len(data)
		}
		if end == i {
			break
		}
		tuples = append(tuples, data[i:end])
		i = end
	}
	return tuples
}

// TestPageRoundTrip is the testing/quick property: any sequence of
// tuples inserted into a page comes back byte-identical through
// Seal → LoadPage → Get, in slot order.
func TestPageRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		buf := make([]byte, 2048)
		p := InitPage(buf, 7)
		var want [][]byte
		for _, tup := range randTuples(data, 128) {
			if slot, ok := p.Insert(tup); ok {
				if slot != len(want) {
					t.Logf("insert returned slot %d, want %d", slot, len(want))
					return false
				}
				want = append(want, append([]byte(nil), tup...))
			}
		}
		p.Seal()
		q, err := LoadPage(buf)
		if err != nil {
			t.Logf("LoadPage: %v", err)
			return false
		}
		if q.PageNo() != 7 || q.Live() != len(want) {
			return false
		}
		for i, w := range want {
			got, ok := q.Get(i)
			if !ok || !bytes.Equal(got, w) {
				t.Logf("slot %d mismatch", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// killSlot marks slot i dead the way the on-disk format spells it
// (offset 0, one live tuple fewer). Nothing in the engine deletes a tuple;
// a dead slot can only arrive in an image read from disk, so the tests
// that need one build it by hand.
func killSlot(p Page, i int) {
	p.setSlot(i, 0, 0)
	p.setLive(p.Live() - 1)
}

// TestPageFill pins how many effect-sized tuples a page accepts: 64 bytes
// of tuple plus a 4-byte slot under a 16-byte header, the same count the
// slot-reusing Insert reached on a page that never saw a delete. The
// benchmark's preloaded partitions keep their page counts through it.
func TestPageFill(t *testing.T) {
	for _, c := range []struct{ pageSize, want int }{
		{MinPageSize, 7}, {2048, 29}, {DefaultPageSize, 120}, {MaxPageSize, 481},
	} {
		buf := make([]byte, c.pageSize)
		p := InitPage(buf, 0)
		n := 0
		for {
			slot, ok := p.Insert(bytes.Repeat([]byte{byte(n)}, effectBytes))
			if !ok {
				break
			}
			if slot != n {
				t.Fatalf("page size %d: tuple %d landed in slot %d", c.pageSize, n, slot)
			}
			n++
		}
		if n != c.want || p.Live() != n || p.NumSlots() != n {
			t.Errorf("page size %d: %d tuples (live %d, slots %d), want %d", c.pageSize, n, p.Live(), p.NumSlots(), c.want)
		}
		if free := p.FreeSpace(); free < 0 || free >= effectBytes+slotLen {
			t.Errorf("page size %d: full page reports %d free bytes", c.pageSize, free)
		}
		p.Seal()
		if _, err := LoadPage(buf); err != nil {
			t.Errorf("page size %d: full page rejected: %v", c.pageSize, err)
		}
	}
}

// TestPageDeadSlotAppendOnly loads a sealed image with a dead slot in the
// middle — valid input from disk, though nothing here writes one: LoadPage
// accepts it, Get skips the dead slot, and Insert appends a fresh slot
// without rewriting the dead one or the bytes it used to own.
func TestPageDeadSlotAppendOnly(t *testing.T) {
	buf := make([]byte, 512)
	p := InitPage(buf, 4)
	tuples := [][]byte{[]byte("first"), []byte("second, dead"), []byte("third")}
	for i, tup := range tuples {
		if slot, ok := p.Insert(tup); !ok || slot != i {
			t.Fatalf("setup insert %d: slot %d ok %v", i, slot, ok)
		}
	}
	deadOff, deadLen := p.slot(1)
	killSlot(p, 1)
	p.Seal()
	q, err := LoadPage(buf)
	if err != nil {
		t.Fatalf("LoadPage rejected a dead slot: %v", err)
	}
	if q.Live() != 2 || q.NumSlots() != 3 {
		t.Fatalf("live %d slots %d, want 2 and 3", q.Live(), q.NumSlots())
	}
	if _, ok := q.Get(1); ok {
		t.Error("Get returned the dead slot")
	}
	free := q.FreeSpace()
	slot, ok := q.Insert([]byte("fourth"))
	if !ok || slot != 3 {
		t.Fatalf("Insert after a dead slot: slot %d ok %v, want a fresh slot 3", slot, ok)
	}
	if off, _ := q.slot(1); off != 0 {
		t.Error("Insert rewrote the dead slot")
	}
	if !bytes.Equal(buf[deadOff:deadOff+deadLen], tuples[1]) {
		t.Error("Insert reclaimed the dead tuple's bytes")
	}
	if got := q.FreeSpace(); got != free-len("fourth")-slotLen {
		t.Errorf("free space %d after the insert, want %d", got, free-len("fourth")-slotLen)
	}
	for i, want := range [][]byte{tuples[0], nil, tuples[2], []byte("fourth")} {
		got, ok := q.Get(i)
		if ok != (want != nil) || !bytes.Equal(got, want) {
			t.Errorf("slot %d: %q %v, want %q", i, got, ok, want)
		}
	}
	q.Seal()
	if r, err := LoadPage(buf); err != nil || r.Live() != 3 {
		t.Fatalf("reload after the insert: live %d, %v", r.Live(), err)
	}
}

// TestPageCorruptionBitFlip flips every bit of a sealed page, one at a
// time, and requires LoadPage to reject each corrupted image. This is
// the checksum satellite: no single-bit flip goes undetected.
func TestPageCorruptionBitFlip(t *testing.T) {
	buf := make([]byte, 512)
	p := InitPage(buf, 9)
	p.Insert([]byte("the quick brown fox"))
	p.Insert([]byte("jumps over the lazy dog"))
	p.Seal()
	if _, err := LoadPage(buf); err != nil {
		t.Fatalf("clean page rejected: %v", err)
	}
	for byteOff := 0; byteOff < len(buf); byteOff++ {
		for bit := 0; bit < 8; bit++ {
			buf[byteOff] ^= 1 << bit
			if _, err := LoadPage(buf); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", byteOff, bit)
			}
			buf[byteOff] ^= 1 << bit
		}
	}
	if _, err := LoadPage(buf); err != nil {
		t.Fatalf("page damaged by the flip loop itself: %v", err)
	}
}

// FuzzPageCodec drives the page codec with arbitrary operation tapes:
// appends, hand-killed slots (the dead slots a loaded image may carry)
// and seal-and-reload round trips against a shadow model, then checks the
// sealed image reloads to the same content.
func FuzzPageCodec(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 2, 0})
	f.Add([]byte{1, 0, 0, 10, 3})
	f.Add(bytes.Repeat([]byte{0, 30, 7}, 40))
	f.Fuzz(func(t *testing.T, tape []byte) {
		buf := make([]byte, 1024)
		p := InitPage(buf, 2)
		shadow := map[int][]byte{}
		i := 0
		next := func() (byte, bool) {
			if i >= len(tape) {
				return 0, false
			}
			b := tape[i]
			i++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 3 {
			case 0: // insert
				n, ok := next()
				if !ok {
					break
				}
				ln := 1 + int(n)%160
				end := i + ln
				if end > len(tape) {
					end = len(tape)
				}
				tup := append([]byte(nil), tape[i:end]...)
				i = end
				if len(tup) == 0 {
					tup = []byte{0}
				}
				slots := p.NumSlots()
				if slot, ok := p.Insert(tup); ok {
					if slot != slots {
						t.Fatalf("Insert used slot %d of a %d-slot directory, want a fresh one", slot, slots)
					}
					shadow[slot] = tup
				}
			case 1: // a slot goes dead
				n, ok := next()
				if !ok {
					break
				}
				if s := int(n) % (p.NumSlots() + 1); shadow[s] != nil {
					killSlot(p, s)
					delete(shadow, s)
				}
			case 2: // round trip through the sealed image
				p.Seal()
				q, err := LoadPage(buf)
				if err != nil {
					t.Fatalf("sealed image rejected mid-tape: %v", err)
				}
				p = q
			}
			if p.Live() != len(shadow) {
				t.Fatalf("Live()=%d, shadow=%d", p.Live(), len(shadow))
			}
		}
		for s := 0; s < p.NumSlots(); s++ {
			got, ok := p.Get(s)
			if want := shadow[s]; ok != (want != nil) || !bytes.Equal(got, want) {
				t.Fatalf("slot %d diverged from shadow", s)
			}
		}
		p.Seal()
		q, err := LoadPage(buf)
		if err != nil {
			t.Fatalf("sealed image rejected: %v", err)
		}
		if q.Live() != len(shadow) {
			t.Fatalf("reloaded Live()=%d, want %d", q.Live(), len(shadow))
		}
	})
}

// Package storage is the heap-file storage engine under the bulk
// transactions (ROADMAP: "A real storage engine under the bulk
// transactions"): slotted pages with checksummed headers, per-node
// buffer pools with clock eviction, and partition-level append-only heap
// files with Scan/Insert/Get access keyed by the existing partition IDs.
//
// The engine is deliberately subordinate to the schedulers: it moves
// real bytes but never makes a concurrency-control decision. Partition
// exclusivity is the scheduler's job (strict 2PL on partitions), so the
// page layer takes no latches of its own for reads; mutations go
// through a per-partition operation lock only so the engine's own
// commit-apply and WAL-redo paths may run concurrently (see store.go).
//
// Durability contract (docs/STORAGE.md): heap pages are never fsynced.
// The PR-7 dependency WAL is the only forced stream; dirty pages flush
// (write, no sync) at commit strictly *after* the commit record's fsync
// — the write-ahead contract extended to pages. A crash may therefore
// tear any heap page, and recovery handles it: Open discards every page
// whose checksum fails (torn-tail truncation, interior reinitialize)
// and WAL replay re-applies the missing committed effects (Redo).
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// DefaultPageSize is the fixed page size unless WithPageSize says
	// otherwise: 8 KiB, the classic heap-file unit.
	DefaultPageSize = 8192
	// MinPageSize and MaxPageSize bound configurable page sizes: the
	// slot directory uses 16-bit offsets, so a page may not exceed
	// 32 KiB, and below 512 bytes the header+slot overhead dominates.
	MinPageSize = 512
	MaxPageSize = 32768

	pageHeaderLen = 16
	slotLen       = 4
	pageMagic     = 0x5042 // "PB"
)

// Page header layout (little-endian):
//
//	0:4   checksum   crc32c(buf[4:pageSize])
//	4:6   magic      0x5042
//	6:8   nslots     slot-directory entries (live + dead)
//	8:10  dataStart  lowest tuple byte; free space ends here
//	10:12 live       live (non-deleted) tuple count
//	12:16 pageNo     page number within its heap file
//
// Slot directory entries (u16 offset, u16 length) grow upward from the
// header; tuple bytes grow downward from the end of the page. A dead
// slot has offset 0 — tuple data can never start inside the header, so
// zero is unambiguous.

var pageCRC = crc32.MakeTable(crc32.Castagnoli)

// Page is a slotted page over a caller-owned buffer of exactly the
// store's page size. The zero value is invalid; use InitPage or
// LoadPage.
type Page struct {
	b []byte
}

// InitPage formats buf as an empty page numbered pageNo and returns it.
// The buffer is zeroed first so freshly allocated frames never leak
// stale tuple bytes into checksums.
func InitPage(buf []byte, pageNo uint32) Page {
	for i := range buf {
		buf[i] = 0
	}
	p := Page{b: buf}
	binary.LittleEndian.PutUint16(buf[4:], pageMagic)
	p.setDataStart(uint16(len(buf)))
	binary.LittleEndian.PutUint32(buf[12:], pageNo)
	return p
}

// LoadPage wraps buf as a page, verifying the checksum, the magic and
// the structural invariants (slot directory inside bounds, tuples
// non-overlapping with the directory). A failure means the page is torn
// or corrupt and must be discarded by the caller.
func LoadPage(buf []byte) (Page, error) {
	p := Page{b: buf}
	if len(buf) < MinPageSize {
		return Page{}, fmt.Errorf("storage: page buffer %d bytes", len(buf))
	}
	if !p.Verify() {
		return Page{}, fmt.Errorf("storage: page checksum mismatch")
	}
	if err := p.check(); err != nil {
		return Page{}, err
	}
	return p, nil
}

// Seal computes and stores the page checksum; call before writing the
// page to disk.
func (p Page) Seal() {
	binary.LittleEndian.PutUint32(p.b, crc32.Checksum(p.b[4:], pageCRC))
}

// Verify reports whether the stored checksum matches the page content
// and the magic is intact. A sealed page that verifies is exactly the
// image that was sealed; a torn write (prefix of a new image over an
// old one) fails unless the images agree byte-for-byte over the torn
// region — in which case nothing was lost.
func (p Page) Verify() bool {
	if len(p.b) < pageHeaderLen {
		return false
	}
	if binary.LittleEndian.Uint16(p.b[4:]) != pageMagic {
		return false
	}
	return binary.LittleEndian.Uint32(p.b) == crc32.Checksum(p.b[4:], pageCRC)
}

func (p Page) nslots() int     { return int(binary.LittleEndian.Uint16(p.b[6:])) }
func (p Page) setNslots(n int) { binary.LittleEndian.PutUint16(p.b[6:], uint16(n)) }
func (p Page) dataStart() int  { return int(binary.LittleEndian.Uint16(p.b[8:])) }
func (p Page) setDataStart(v uint16) {
	binary.LittleEndian.PutUint16(p.b[8:], v)
}

// Live returns the number of live (non-deleted) tuples.
func (p Page) Live() int     { return int(binary.LittleEndian.Uint16(p.b[10:])) }
func (p Page) setLive(n int) { binary.LittleEndian.PutUint16(p.b[10:], uint16(n)) }

// PageNo returns the page's number within its heap file.
func (p Page) PageNo() uint32 { return binary.LittleEndian.Uint32(p.b[12:]) }

// NumSlots returns the slot-directory size, dead slots included.
func (p Page) NumSlots() int { return p.nslots() }

func (p Page) slot(i int) (off, length int) {
	base := pageHeaderLen + i*slotLen
	return int(binary.LittleEndian.Uint16(p.b[base:])),
		int(binary.LittleEndian.Uint16(p.b[base+2:]))
}

func (p Page) setSlot(i, off, length int) {
	base := pageHeaderLen + i*slotLen
	binary.LittleEndian.PutUint16(p.b[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.b[base+2:], uint16(length))
}

// Get returns the tuple in slot i, or false for a dead or out-of-range
// slot. The returned slice aliases the page buffer; callers that keep
// it past the pin must copy.
func (p Page) Get(i int) ([]byte, bool) {
	if i < 0 || i >= p.nslots() {
		return nil, false
	}
	off, length := p.slot(i)
	if off == 0 {
		return nil, false
	}
	return p.b[off : off+length], true
}

// FreeSpace returns the contiguous free bytes between the slot
// directory and the tuple data.
func (p Page) FreeSpace() int {
	return p.dataStart() - pageHeaderLen - p.nslots()*slotLen
}

// Insert appends tuple in a fresh slot at the end of the directory and
// returns the slot index, or false when the contiguous free space cannot
// hold the tuple and its directory entry. Pages are append-only: nothing
// the store runs deletes or rewrites a tuple, so a dead slot — which only
// an image loaded from disk can carry — is never reused and its bytes are
// never reclaimed.
func (p Page) Insert(tuple []byte) (int, bool) {
	if p.FreeSpace() < len(tuple)+slotLen {
		return -1, false
	}
	slot := p.nslots()
	ds := p.dataStart() - len(tuple)
	copy(p.b[ds:], tuple)
	p.setDataStart(uint16(ds))
	p.setSlot(slot, ds, len(tuple))
	p.setNslots(slot + 1)
	p.setLive(p.Live() + 1)
	return slot, true
}

// check validates the structural invariants LoadPage relies on.
func (p Page) check() error {
	size := len(p.b)
	n := p.nslots()
	dirEnd := pageHeaderLen + n*slotLen
	ds := p.dataStart()
	if dirEnd > ds || ds > size {
		return fmt.Errorf("storage: page %d: slot directory %d overlaps data start %d (size %d)",
			p.PageNo(), dirEnd, ds, size)
	}
	live := 0
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		live++
		if off < ds || off+length > size {
			return fmt.Errorf("storage: page %d slot %d: tuple [%d,%d) outside data region [%d,%d)",
				p.PageNo(), i, off, off+length, ds, size)
		}
	}
	if live != p.Live() {
		return fmt.Errorf("storage: page %d: live count %d but %d live slots", p.PageNo(), p.Live(), live)
	}
	return nil
}

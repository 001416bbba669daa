// Package wal implements per-node dependency logging for durable
// recovery (ROADMAP: "Durable recovery via dependency logging").
//
// Instead of logging data values, each node's log records every
// committed transaction's footprint and *resolved WTPG predecessor set*
// — the wait-for edges the scheduler resolved against it (Yao et al.,
// "Scaling Distributed Transaction Processing and Recovery based on
// Dependency Logging", PAPERS.md) — in one Commit record. Aborted and
// unfinished transactions leave no record: storage is no-steal, so they
// left nothing on a page either. Partition locks are held until the
// Commit record is appended (strict 2PL up to pre-commit), so the logged
// precedence edges are the only ordering constraints a replay must
// respect, and recovery can replay transactions in parallel, wave by
// topological wave.
//
// On-disk format (little-endian throughout):
//
//	file   = header frame*
//	header = magic "BATWAL3\n" (8 bytes) | u32 node
//	frame  = u32 payloadLen | u32 crc32c(payload) | payload
//
//	payload = u8 kind            (2=commit; the only valid kind)
//	        | u64 seq            (global append order, 1, 2, 3, …)
//	        | i64 txn
//	        | u32 node
//	        | i64 at             (event.Time clocks)
//	        | u16 nsteps  { u32 part | u8 mode | f64 declared }*
//	        | u16 npreds  { i64 pred }*
//
// Every frame is independently checksummed (CRC-32C). A reader stops at
// the first frame that is torn (extends past end of file), corrupt
// (checksum or structure mismatch) or numbered below its predecessor,
// and keeps the longest valid prefix — the torn-tail truncation rule.
//
// The sequence number is what makes the node files of one directory one
// log: Append numbers records 1, 2, 3, … across all of them, and the
// recoverable history is the gap-free prefix of that numbering — every
// record up to the first number no file holds (see consistentCut). A
// transaction releases its partition locks only after appending its
// Commit record, so whatever a record's transaction read from has a
// smaller number, and a group-commit pass makes every number up to its
// target durable: nothing acknowledged lies beyond a gap, and a durable
// successor of a lost predecessor does — it is cut with it. Scan applies
// the rule to what it returns; a writer opening an existing log
// truncates each file to it before appending and continues the
// numbering.
//
// The write-ahead contract extends to the heap files of
// internal/storage: a commit's effects are applied to cached pages only
// after its record is appended, and the store forces the log through
// everything appended before any page image leaves the pool (written,
// never fsynced), so any page state the heap loses or tears in a crash
// is always recoverable by replaying the committed records
// (Store.Redo).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"batsched/internal/event"
	"batsched/internal/txn"
)

// Kind is a log record type.
type Kind uint8

const (
	// Begin is retired: it was an admission record, folded into Commit.
	// The decoder rejects it, and Append does not: a log that holds a
	// Begin record is unreadable from that record on (Scan and Open take
	// it for a torn tail). Its one writer is the benchmark's force probe,
	// whose log is never read back.
	Begin Kind = 1
	// Commit records a committed transaction: its declared footprint and
	// the union of the predecessor sets resolved at admission and at
	// commit (schedulers that resolve progressively, e.g. C2PL and
	// K-WTPG, may have added edges after admission; a predecessor that
	// committed meanwhile has left the graph). It is the only record a
	// log holds.
	Commit Kind = 2
)

func (k Kind) String() string {
	switch k {
	case Begin:
		return "begin"
	case Commit:
		return "commit"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// StepRef is one footprint entry of a Commit record: the partition, the
// lock mode, and the declared I/O demand the schedulers saw.
type StepRef struct {
	Part     txn.PartitionID
	Mode     txn.Mode
	Declared float64
}

// Record is one log record. Node names the log the record belongs to:
// the home of the transaction's first partition when it committed. Seq
// is the record's place in the directory-wide append order; Log.Append
// stamps it, overwriting whatever the caller put there.
type Record struct {
	Kind  Kind
	Seq   uint64
	Txn   txn.ID
	Node  int
	At    event.Time
	Steps []StepRef // declared footprint
	Preds []txn.ID  // resolved WTPG predecessors, at admission and at commit
}

// Footprint converts a transaction's declared steps into StepRefs.
func Footprint(t *txn.T) []StepRef {
	if len(t.Steps) == 0 {
		return nil
	}
	refs := make([]StepRef, len(t.Steps))
	for i, s := range t.Steps {
		d := s.Cost
		if i < len(t.Declared) {
			d = t.Declared[i]
		}
		refs[i] = StepRef{Part: s.Part, Mode: s.Mode, Declared: d}
	}
	return refs
}

var (
	// ErrTorn marks a frame that extends past the end of the buffer —
	// the write was cut mid-frame (a crash between write and fsync).
	ErrTorn = errors.New("wal: torn frame")
	// ErrCorrupt marks a frame whose checksum or structure is invalid.
	ErrCorrupt = errors.New("wal: corrupt frame")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8       // u32 len + u32 crc
	maxPayload     = 1 << 20 // sanity bound; a garbage length field reads as corruption
	maxList        = 1 << 16 // nsteps / npreds are u16
)

var fileMagic = [8]byte{'B', 'A', 'T', 'W', 'A', 'L', '3', '\n'}

const fileHeaderLen = 12 // magic + u32 node

func appendHeader(b []byte, node int) []byte {
	b = append(b, fileMagic[:]...)
	return binary.LittleEndian.AppendUint32(b, uint32(node))
}

func parseHeader(b []byte) (node int, err error) {
	if len(b) < fileHeaderLen {
		return 0, fmt.Errorf("%w: file header", ErrTorn)
	}
	if [8]byte(b[:8]) != fileMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	return int(binary.LittleEndian.Uint32(b[8:12])), nil
}

// appendRecord appends r as one checksummed frame to b.
func appendRecord(b []byte, r Record) ([]byte, error) {
	if len(r.Steps) >= maxList || len(r.Preds) >= maxList {
		return b, fmt.Errorf("wal: record %v has %d steps / %d preds (max %d)",
			r.Txn, len(r.Steps), len(r.Preds), maxList-1)
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(b)
	b = append(b, byte(r.Kind))
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Txn))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.At))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Steps)))
	for _, s := range r.Steps {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Part))
		b = append(b, byte(s.Mode))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Declared))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Preds)))
	for _, id := range r.Preds {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	payload := b[p:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// decodeRecord decodes the first frame of b. It returns the record and
// the number of bytes consumed, or ErrTorn (frame extends past b) /
// ErrCorrupt (checksum or structure mismatch).
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, ErrTorn
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if len(b) < frameHeaderLen+plen {
		return Record{}, 0, ErrTorn
	}
	want := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeaderLen : frameHeaderLen+plen]
	if crc32.Checksum(payload, castagnoli) != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r, err := parsePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, frameHeaderLen + plen, nil
}

// payloadFixed is the payload up to and including nsteps; frameLen is
// the encoded size of r, which the consistent cut needs to turn a count
// of dropped records into a byte offset.
const payloadFixed = 1 + 8 + 8 + 4 + 8 + 2

func frameLen(r Record) int {
	return frameHeaderLen + payloadFixed + 13*len(r.Steps) + 2 + 8*len(r.Preds)
}

func parsePayload(p []byte) (Record, error) {
	if len(p) < payloadFixed {
		return Record{}, fmt.Errorf("%w: short payload (%d bytes)", ErrCorrupt, len(p))
	}
	var r Record
	r.Kind = Kind(p[0])
	if r.Kind != Commit {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, p[0])
	}
	r.Seq = binary.LittleEndian.Uint64(p[1:])
	r.Txn = txn.ID(binary.LittleEndian.Uint64(p[9:]))
	r.Node = int(binary.LittleEndian.Uint32(p[17:]))
	r.At = event.Time(binary.LittleEndian.Uint64(p[21:]))
	nsteps := int(binary.LittleEndian.Uint16(p[29:]))
	off := payloadFixed
	if nsteps > 0 {
		if len(p) < off+nsteps*13 {
			return Record{}, fmt.Errorf("%w: %d steps overflow payload", ErrCorrupt, nsteps)
		}
		r.Steps = make([]StepRef, nsteps)
		for i := range r.Steps {
			r.Steps[i] = StepRef{
				Part:     txn.PartitionID(binary.LittleEndian.Uint32(p[off:])),
				Mode:     txn.Mode(p[off+4]),
				Declared: math.Float64frombits(binary.LittleEndian.Uint64(p[off+5:])),
			}
			off += 13
		}
	}
	if len(p) < off+2 {
		return Record{}, fmt.Errorf("%w: missing pred count", ErrCorrupt)
	}
	npreds := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if npreds > 0 {
		if len(p) < off+npreds*8 {
			return Record{}, fmt.Errorf("%w: %d preds overflow payload", ErrCorrupt, npreds)
		}
		r.Preds = make([]txn.ID, npreds)
		for i := range r.Preds {
			r.Preds[i] = txn.ID(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
	}
	if off != len(p) {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p)-off)
	}
	return r, nil
}

// scanPrefix decodes frames from b until the first torn or corrupt one
// — a frame numbered below its predecessor counts as corrupt: one file's
// appends are in sequence order — returning the decoded records, the
// byte length of the valid prefix, and the error that stopped the scan
// (nil when b was fully consumed).
func scanPrefix(b []byte) (recs []Record, valid int, stop error) {
	var last uint64
	for valid < len(b) {
		r, n, err := decodeRecord(b[valid:])
		if err != nil {
			return recs, valid, err
		}
		if r.Seq < last {
			return recs, valid, fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, r.Seq, last)
		}
		last = r.Seq
		recs = append(recs, r)
		valid += n
	}
	return recs, valid, nil
}

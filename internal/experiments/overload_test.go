package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"batsched/internal/core/sched"
	"batsched/internal/obs"
	"batsched/internal/sim"
)

// The overload digest pins the decisions of the cells the quick grids
// cannot build: C2PL and its two Experiment 4 hybrids on Figure 6's
// λ = 1.1 cell and on Figure 8's λ = 1.1 cell at four hot partitions, at
// the full horizon, where a C2PL WTPG holds about a thousand
// transactions and nearly every request is a re-test of a refusal. A
// cell's trace runs to millions of events, so each event's fields are
// hashed in a compact binary layout (varints, raw float bits,
// length-prefixed strings) instead of as JSON, with a checkpoint every
// overloadEvery events. -update rewrites the file, and
// -digest.cell/-digest.dump write a cell's JSONL trace as in
// TestDecisionDigest.
const (
	overloadFile  = "testdata/decisions_overload.digest"
	overloadEvery = 1 << 16
)

// overloadCell is one digested cell: its experiment, its name and its
// configuration, built as the figure's grid builds it.
type overloadCell struct {
	exp, name string
	cfg       sim.Config
}

func overloadCells() []overloadCell {
	o := Options{}.withDefaults()
	li := len(o.Lambdas) - 1 // λ = 1.1
	var cells []overloadCell
	for _, name := range []string{"C2PL", "CHAIN-C2PL", "K2-C2PL"} {
		f := sched.MustLookup(name)
		cells = append(cells,
			overloadCell{"fig6", fmt.Sprintf("%s/λ=%g", name, o.Lambdas[li]), cellConfig(o, pattern1, f, li, 0)},
			overloadCell{"fig8", fmt.Sprintf("hots=4/%s/λ=%g", name, o.Lambdas[li]),
				cellConfig(o, func(c *sim.Config) { hotSet(c, 4) }, f, li, 0)})
	}
	return cells
}

// binaryHasher hashes every event's fields but the wall-clock DurNS,
// checkpointing the running hash every overloadEvery events, and copies
// the event to tee when one is set. The literal 0 after Node holds the
// place of the removed node-crash field FromNode, so the pinned bytes
// did not move.
type binaryHasher struct {
	h      hash.Hash
	buf    []byte
	events int
	checks []string
	tee    obs.Observer
}

func (b *binaryHasher) Observe(e obs.Event) {
	e.DurNS = 0
	if b.tee != nil {
		b.tee.Observe(e)
	}
	p := append(b.buf[:0], byte(e.Kind))
	for _, v := range [...]int64{int64(e.At), e.WallNS, int64(e.Txn), int64(e.Step), int64(e.Part), int64(e.CPU),
		int64(e.RT), int64(e.From), int64(e.To), int64(e.Graph), int64(e.Queue), int64(e.Node), 0,
		int64(e.Batch), int64(e.Clusters), int64(e.Shard)} {
		p = binary.AppendVarint(p, v)
	}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(e.Objects))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(e.CritPath))
	if e.Write {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	for _, s := range [...]string{e.Sched, e.Op, e.Decision} {
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	b.buf = p
	b.h.Write(p)
	if b.events++; b.events%overloadEvery == 0 {
		b.checks = append(b.checks, hex.EncodeToString(b.h.Sum(nil)[:4]))
	}
}

// runOverloadCell runs one cell and returns its digest, writing its JSONL
// trace to -digest.dump when -digest.cell names it.
func runOverloadCell(t *testing.T, c overloadCell) cellDigest {
	t.Helper()
	b := &binaryHasher{h: sha256.New()}
	if *digestDump != "" && *digestCell == c.name {
		f, err := os.Create(*digestDump)
		if err != nil {
			t.Fatal(err)
		}
		dump := obs.NewJSONL(f)
		b.tee = dump
		defer func() {
			if err := dump.Close(); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			t.Logf("wrote the trace of %s %s to %s", c.exp, c.name, *digestDump)
		}()
	}
	if _, err := sim.Run(c.cfg, sim.WithTrace(b)); err != nil {
		t.Fatalf("%s %s: %v", c.exp, c.name, err)
	}
	return cellDigest{events: b.events, sum: hex.EncodeToString(b.h.Sum(nil)[:8]), checks: b.checks}
}

// TestOverloadDigest holds each overloaded cell's trace to its digest.
// It runs about 10 s of simulation without the race detector, and is
// skipped under it.
func TestOverloadDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("full-horizon overloaded cells: too slow under the race detector")
	}
	// Every field of obs.Event but DurNS is hashed above; a new field
	// must be added there.
	if n := reflect.TypeOf(obs.Event{}).NumField(); n != 23 {
		t.Fatalf("obs.Event has %d fields; binaryHasher hashes 22 of 23", n)
	}
	want := readDigests(t, overloadFile)
	var lines []string
	for _, c := range overloadCells() {
		d := runOverloadCell(t, c)
		lines = append(lines, fmt.Sprintf("%s %s %v", c.exp, c.name, d))
		if *updateDigests {
			continue
		}
		w, ok := want[c.exp][c.name]
		switch {
		case !ok:
			t.Errorf("%s %s: not in %s (regenerate it with -update)", c.exp, c.name, overloadFile)
		case d.sum != w.sum || d.events != w.events:
			t.Errorf("%s %s: decisions moved: the first difference lies in %s (%d events here, %d in %s)\n"+
				"  repro: go test -count=1 -run 'TestOverloadDigest$' ./internal/experiments/ -args -digest.cell '%s' -digest.dump /tmp/%s.jsonl",
				c.exp, c.name, firstDifference(d, w, overloadEvery), d.events, w.events, overloadFile, c.name, c.exp)
		}
	}
	if !*updateDigests {
		return
	}
	content := "# experiment cell events sha256[:8] checkpoint-per-65536-events... (binary event layout: overload_test.go)\n" +
		"# Regenerate: go test -run TestOverloadDigest ./internal/experiments/ -update\n" +
		strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(overloadFile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", overloadFile)
}

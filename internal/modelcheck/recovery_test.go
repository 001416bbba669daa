package modelcheck

import (
	"strings"
	"testing"

	"batsched/internal/txn"
	"batsched/internal/wal"
)

// recScans builds a two-node history: 1,2 concurrent roots; 3 after
// both; 4 after 1; 5 aborted; 6 incomplete (begin only).
func recScans() []wal.NodeScan {
	rec := func(k wal.Kind, id txn.ID, node int, preds ...txn.ID) wal.Record {
		return wal.Record{Kind: k, Txn: id, Node: node, Preds: preds}
	}
	return []wal.NodeScan{
		{Node: 0, Records: []wal.Record{
			rec(wal.Begin, 1, 0),
			rec(wal.Begin, 3, 0, 1),
			rec(wal.Commit, 1, 0),
			rec(wal.Commit, 3, 0, 1, 2),
			rec(wal.Begin, 5, 0),
			rec(wal.Abort, 5, 0),
		}},
		{Node: 1, Records: []wal.Record{
			rec(wal.Begin, 2, 1),
			rec(wal.Begin, 4, 1, 1),
			rec(wal.Commit, 2, 1),
			rec(wal.Commit, 4, 1, 1),
			rec(wal.Begin, 6, 1, 4),
		}},
	}
}

func TestVerifyRecoveryAcceptsReplay(t *testing.T) {
	scans := recScans()
	rec, err := wal.Replay(scans, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRecovery(scans, rec); err != nil {
		t.Fatalf("genuine replay rejected: %v", err)
	}
}

func TestVerifyRecoveryRejectsTampering(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(scans []wal.NodeScan, rec *wal.Recovery)
		want   string
	}{
		{"committed record beyond a sequence gap", func(scans []wal.NodeScan, _ *wal.Recovery) {
			// Number the history in scan order and leave number 3 out, as
			// if a third file had lost the record that carried it: every
			// commit record now sits beyond the hole.
			seq := uint64(0)
			for _, ns := range scans {
				for j := range ns.Records {
					if seq++; seq == 3 {
						seq++
					}
					ns.Records[j].Seq = seq
				}
			}
		}, "beyond the sequence gap"},
		{"resurrect incomplete txn", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Committed = append(rec.Committed, 6)
			rec.Wave[6] = rec.Waves
			rec.Waves++
		}, "no durable commit"},
		{"drop a committed txn", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Committed = rec.Committed[:len(rec.Committed)-1]
		}, "missing from recovered committed set"},
		{"commit an aborted txn", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Aborted = nil
			rec.Committed = append(rec.Committed, 5)
			rec.Wave[5] = 0
		}, "no durable commit"},
		{"precedence-violating wave", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Wave[3] = 0 // 3 depends on 1 and 2
		}, "no later than its predecessor"},
		{"inflated MaxParallel", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.MaxParallel++
		}, "widest wave"},
		{"abort a committed txn too", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Aborted = append(rec.Aborted, rec.Committed[0])
		}, "both committed and aborted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scans := recScans()
			rec, err := wal.Replay(scans, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(scans, rec)
			err = VerifyRecovery(scans, rec)
			if err == nil {
				t.Fatal("tampered recovery accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

package modelcheck

import (
	"strings"
	"testing"

	"batsched/internal/txn"
	"batsched/internal/wal"
)

// recScans builds a two-node history: 1,2 concurrent roots; 3 after
// both; 4 after 1 and after 5, which aborted and so left no record.
func recScans() []wal.NodeScan {
	rec := func(id txn.ID, node int, preds ...txn.ID) wal.Record {
		return wal.Record{Kind: wal.Commit, Txn: id, Node: node, Preds: preds}
	}
	return []wal.NodeScan{
		{Node: 0, Records: []wal.Record{rec(1, 0), rec(3, 0, 1, 2)}},
		{Node: 1, Records: []wal.Record{rec(2, 1), rec(4, 1, 1, 5)}},
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
			// if a third file had lost the record that carried it: the
			// records after it now sit beyond the hole.
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
		{"drop a committed txn", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Committed = rec.Committed[:len(rec.Committed)-1]
		}, "missing from recovered committed set"},
		{"commit an aborted txn", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Committed = append(rec.Committed, 5)
			rec.Wave[5] = 0
		}, "no durable commit"},
		{"precedence-violating wave", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.Wave[3] = 0 // 3 depends on 1 and 2
		}, "no later than its predecessor"},
		{"inflated MaxParallel", func(_ []wal.NodeScan, rec *wal.Recovery) {
			rec.MaxParallel++
		}, "widest wave"},
		{"abort a committed txn too", func(scans []wal.NodeScan, _ *wal.Recovery) {
			// Kind 3 was the Abort record's; the grammar has no such kind.
			scans[0].Records = append(scans[0].Records, wal.Record{Kind: 3, Txn: 1})
		}, "only commit records"},
		{"commit a txn twice", func(scans []wal.NodeScan, _ *wal.Recovery) {
			scans[1].Records = append(scans[1].Records, scans[0].Records[0])
		}, "two commit records"},
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

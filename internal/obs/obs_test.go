package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestKindJSONRoundTrip: every kind encodes as its own name, and no two
// kinds share one, so a trace reader can map names back to kinds.
func TestKindJSONRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); int(k) < len(kindNames); k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var name string
		if err := json.Unmarshal(data, &name); err != nil || name != k.String() || name == "" {
			t.Errorf("kind %d encodes as %s (err %v), want its name", k, data, err)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Observe(Event{Kind: KindCommit, Txn: 0, Step: i})
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Step != i+3 {
			t.Errorf("event %d has step %d, want %d (oldest-first order)", i, e.Step, i+3)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Observe(Event{Step: 1})
	r.Observe(Event{Step: 2})
	if got := r.Events(); len(got) != 2 || got[0].Step != 1 || got[1].Step != 2 {
		t.Errorf("partial ring events = %+v", got)
	}
}

func TestJSONLValidLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Observe(Event{Kind: KindDecision, At: 12, Sched: "CHAIN", Txn: 7, Op: "request", Decision: "granted", CPU: 3, Graph: 4})
	s.Observe(Event{Kind: KindCommit, At: 99, Sched: "CHAIN", Txn: 7, RT: 87})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var e map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if e["kind"] != "decision" || e["sched"] != "CHAIN" || e["decision"] != "granted" || e["cpu"] != 3.0 {
		t.Errorf("decoded %v", e)
	}
	e = nil
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil || e["kind"] != "commit" || e["rt"] != 87.0 {
		t.Errorf("line 1: %v err %v", e, err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 2, 5, 10)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Mean(); got != 22.3 {
		t.Errorf("mean %g, want 22.3", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max %g", got)
	}
	// Ranks: bucket uppers are 1,1,5,10,overflow(max).
	if q := h.Quantile(0.5); q != 5 {
		t.Errorf("p50 %g, want 5", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("p100 %g, want 100", q)
	}
}

func TestMetricsAndSummary(t *testing.T) {
	m := NewMetrics()
	events := []Event{
		{Kind: KindAdmit, Sched: "K2", Txn: 1},
		{Kind: KindDecision, Sched: "K2", Txn: 1, Op: "admit", Decision: "granted", CPU: 2, Graph: 1},
		{Kind: KindRequest, Sched: "K2", Txn: 1, Step: 0, Queue: 2},
		{Kind: KindDecision, Sched: "K2", Txn: 1, Op: "request", Decision: "blocked", CPU: 1, Graph: 1},
		{Kind: KindDecision, Sched: "K2", Txn: 1, Op: "request", Decision: "granted", CPU: 1, Graph: 1},
		{Kind: KindObjectDone, Sched: "K2", Txn: 1, Objects: 2.5},
		{Kind: KindResolve, Sched: "K2", From: 1, To: 2},
		{Kind: KindCriticalPathChange, Sched: "K2", CritPath: 12.5, Graph: 2},
		{Kind: KindCommit, Sched: "K2", Txn: 1, RT: 42_000},
		{Kind: KindCommit, Sched: "K2", Txn: 2, Decision: "aborted"},
	}
	for _, e := range events {
		m.Observe(e)
	}
	sm := m.Sched("K2")
	if sm == nil {
		t.Fatal("no K2 metrics")
	}
	if sm.Admits != 1 || sm.Requests != 1 || sm.Commits != 1 || sm.Aborts != 1 {
		t.Errorf("counters %+v", sm)
	}
	if sm.AdmitDecisions()["granted"] != 1 || sm.RequestDecisions()["blocked"] != 1 || sm.RequestDecisions()["granted"] != 1 {
		t.Errorf("decision counts %v %v", sm.AdmitDecisions(), sm.RequestDecisions())
	}
	if sm.Objects() != 2.5 || sm.Resolves != 1 || sm.CritPathChanges != 1 || sm.CritPathMax() != 12.5 {
		t.Errorf("control-plane counters %+v", sm)
	}
	if sm.DecisionCPU.Count() != 3 {
		t.Errorf("decision cpu n=%d", sm.DecisionCPU.Count())
	}
	if sm.ResponseTime.Count() != 1 || sm.ResponseTime.Mean() != 42 {
		t.Errorf("rt n=%d mean=%g", sm.ResponseTime.Count(), sm.ResponseTime.Mean())
	}

	out := m.Summary()
	for _, want := range []string{"== K2 ==", "admissions", "lock requests", "decision cpu", "response time", "blocked 50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMultiAndNop(t *testing.T) {
	if _, ok := Multi().(Nop); !ok {
		t.Error("Multi() should collapse to Nop")
	}
	r := NewRing(4)
	if Multi(nil, r) != Observer(r) {
		t.Error("Multi(nil, r) should collapse to r")
	}
	r2 := NewRing(4)
	m := Multi(r, r2)
	m.Observe(Event{Kind: KindAdmit, Txn: 9})
	if len(r.Events()) != 1 || len(r2.Events()) != 1 {
		t.Error("multi did not fan out")
	}
	if s, ok := m.(Sink); !ok {
		t.Error("multi of sinks should be a Sink")
	} else if err := s.Close(); err != nil {
		t.Error(err)
	}
	Nop{}.Observe(Event{})
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(Event{Kind: KindDecision, Sched: "X", Op: "request", Decision: "granted", CPU: 1})
			}
		}()
	}
	wg.Wait()
	if n := m.Sched("X").RequestDecisions()["granted"]; n != 8000 {
		t.Errorf("lost events: %d/8000", n)
	}
}

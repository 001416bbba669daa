package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// resultLines runs the benchmark in-process and returns the JSON object
// printed for each workload, in order.
func resultLines(t *testing.T, args ...string) []map[string]struct{ Unit string } {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-quick", "-dir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
	}
	var out []map[string]struct{ Unit string }
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("result line reports correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		out = append(out, res.Metrics)
	}
	return out
}

func names(ms []manifestMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sameMetrics(t *testing.T, what string, got map[string]struct{ Unit string }, want map[string]string) {
	t.Helper()
	var diff []string
	for name, m := range got {
		if unit, ok := want[name]; !ok {
			diff = append(diff, "+"+name)
		} else if unit != m.Unit {
			diff = append(diff, name+" unit "+m.Unit+" != "+unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			diff = append(diff, "-"+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("%s: printed metrics differ from BENCHMARK.json: %v", what, diff)
	}
}

// TestQuickMatchesManifest runs every workload at -quick with all
// checks on and requires the printed workload and metric names to be
// exactly those BENCHMARK.json declares, so a drifted name fails
// go test ./... .
func TestQuickMatchesManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	better := map[string]string{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, mt := range list {
			if !valid.MatchString(mt.name) {
				t.Errorf("metric name %q is not a valid name", mt.name)
			}
			better[mt.name] = mt.better
		}
	}
	for _, mt := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if mt.Better != better[mt.Name] {
			t.Errorf("%s: better %q in BENCHMARK.json, %q in the program", mt.Name, mt.Better, better[mt.Name])
		}
	}
	for i, mt := range m.EndToEnd {
		if mt.Bound != endToEnd[i].bound {
			t.Errorf("%s: bound %g in BENCHMARK.json, %g in the program", mt.Name, mt.Bound, endToEnd[i].bound)
		}
	}

	all := names(append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...))
	lines := resultLines(t)
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(workloads))
	}
	for i, got := range lines {
		sameMetrics(t, workloads[i].name, got, all)
	}
}

// TestTraceFlagSelectsMetrics pins the driver's contract: -trace 0
// prints every end-to-end metric and nothing else, -trace 1 every
// per-layer metric and nothing else.
func TestTraceFlagSelectsMetrics(t *testing.T) {
	m := readManifest(t)
	sameMetrics(t, "-trace 0", resultLines(t, "-workload", "sim-paper", "-trace", "0")[0], names(m.EndToEnd))
	sameMetrics(t, "-trace 1", resultLines(t, "-workload", "hot-full-k2", "-trace", "1")[0], names(m.PerLayer))
}

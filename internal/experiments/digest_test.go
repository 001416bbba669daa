package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"batsched/internal/machine"
	"batsched/internal/obs"
)

// The decision digests pin every scheduling decision the simulator makes
// on the quick grids of Experiments 1–4, the K sweep, the placement
// ablation and the epoch sweep. Each grid cell's JSONL trace, without
// the wall-clock dur_ns field, is hashed and compared with
// testdata/decisions.digest. A change that means to move decisions
// regenerates the file with
//
//	go test -run TestDecisionDigest ./internal/experiments/ -update
//
// and says which cells moved and why.
var (
	updateDigests = flag.Bool("update", false, "rewrite testdata/decisions.digest from this tree's traces")
	digestCell    = flag.String("digest.cell", "", "with -digest.dump: the cell whose trace to write, as the failure names it")
	digestDump    = flag.String("digest.dump", "", "write the JSONL trace of -digest.cell to this file")
)

const (
	digestFile = "testdata/decisions.digest"
	// digestEvery is the checkpoint spacing: the digest file keeps the
	// running hash after every digestEvery events of a cell, so a failure
	// can say in which window of events the first difference lies.
	digestEvery = 256
)

// digestOpts is the quick grid every digested experiment runs on.
func digestOpts() Options {
	return Options{
		Machine:         machine.DefaultConfig(),
		Horizon:         120_000,
		Seed:            1990,
		Lambdas:         []float64{0.3, 0.9},
		RTTargetSeconds: 70,
	}
}

// digestExperiment is one digested grid: its cells' names in grid order
// (variant-major, then scheduler and λ) and the run itself.
type digestExperiment struct {
	name  string
	cells []string
	run   func(o Options, opts ...Option) error
}

// gridCells names the cells of a variants × schedulers × λ grid.
func gridCells(variants, scheds []string, lambdas []float64) []string {
	var out []string
	for _, v := range variants {
		for _, s := range scheds {
			for _, l := range lambdas {
				name := fmt.Sprintf("%s/λ=%g", s, l)
				if v != "" {
					name = v + "/" + name
				}
				out = append(out, name)
			}
		}
	}
	return out
}

func digestExperiments(o Options) []digestExperiment {
	ls := o.Lambdas
	exp1 := []string{"NODC", "ASL", "CHAIN", "K2", "C2PL"}
	exp2 := []string{"ASL", "CHAIN", "K2", "C2PL"}
	exp4 := []string{"CHAIN", "K2", "C2PL", "CHAIN-C2PL", "K2-C2PL"}
	var windows []string
	for _, w := range DefaultEpochWindows() {
		windows = append(windows, fmt.Sprintf("window=%d", w))
	}
	return []digestExperiment{
		{"exp1", gridCells([]string{""}, exp1, ls), func(o Options, opts ...Option) error {
			_, err := RunExperiment1(o, opts...)
			return err
		}},
		{"exp2", gridCells([]string{"hots=4", "hots=8", "hots=16", "hots=32"}, exp2, ls), func(o Options, opts ...Option) error {
			_, err := RunExperiment2(o, opts...)
			return err
		}},
		{"exp3", gridCells([]string{""}, exp2, ls), func(o Options, opts ...Option) error {
			_, err := RunExperiment3(o, opts...)
			return err
		}},
		{"exp4", gridCells([]string{"sigma=0", "sigma=0.25", "sigma=0.5", "sigma=0.75", "sigma=1"}, exp4, ls), func(o Options, opts ...Option) error {
			_, err := RunExperiment4(o, nil, opts...)
			return err
		}},
		{"ksweep", gridCells([]string{""}, []string{"K0", "K1", "K2", "K4", "K8"}, ls), func(o Options, opts ...Option) error {
			_, err := RunKSweep(o, nil, opts...)
			return err
		}},
		{"placement", gridCells([]string{"mod", "declustered"}, exp1, ls), func(o Options, opts ...Option) error {
			_, err := RunPlacementAblation(o, opts...)
			return err
		}},
		{"epoch", gridCells(windows, []string{"EPOCH"}, []float64{0.8}), func(o Options, opts ...Option) error {
			_, err := RunEpochSweep(o, nil, 0, 100, opts...)
			return err
		}},
	}
}

// cellDigest is one cell's line of the digest file: its event count, the
// hash of its whole trace and the running hash every digestEvery events.
type cellDigest struct {
	events int
	sum    string
	checks []string
}

func (d cellDigest) String() string {
	return strings.Join(append([]string{strconv.Itoa(d.events), d.sum}, d.checks...), " ")
}

// lineHasher hashes a JSONL stream line by line, taking a checkpoint of
// the running hash after every digestEvery lines, and copies the stream
// to tee when one is set.
type lineHasher struct {
	h      hash.Hash
	lines  int
	checks []string
	tee    io.Writer
}

func (w *lineHasher) Write(p []byte) (int, error) {
	n := len(p)
	if w.tee != nil {
		if _, err := w.tee.Write(p); err != nil {
			return 0, err
		}
	}
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			w.h.Write(p)
			break
		}
		w.h.Write(p[:i+1])
		p = p[i+1:]
		if w.lines++; w.lines%digestEvery == 0 {
			w.checks = append(w.checks, hex.EncodeToString(w.h.Sum(nil)[:4]))
		}
	}
	return n, nil
}

// cellTracer splits one experiment's trace into its cells. The grid runs
// on one worker, so each cell's events reach the tracer whole and in
// grid order, and the Progress count that follows them closes the cell.
type cellTracer struct {
	names []string
	dump  string // the cell to copy to tee, if any
	tee   io.Writer
	w     *lineHasher
	sink  *obs.JSONL
	cells []cellDigest
	err   error
}

func (c *cellTracer) open() {
	c.w = &lineHasher{h: sha256.New()}
	if i := len(c.cells); i < len(c.names) && c.names[i] == c.dump {
		c.w.tee = c.tee
	}
	c.sink = obs.NewJSONL(c.w)
}

// Observe writes the event without its wall-clock duration.
func (c *cellTracer) Observe(e obs.Event) {
	e.DurNS = 0
	c.sink.Observe(e)
}

// closeCell is the grid's Progress callback.
func (c *cellTracer) closeCell(done, total int) {
	if err := c.sink.Close(); err != nil && c.err == nil {
		c.err = err
	}
	c.cells = append(c.cells, cellDigest{
		events: c.w.lines,
		sum:    hex.EncodeToString(c.w.h.Sum(nil)[:8]),
		checks: c.w.checks,
	})
	c.open()
}

// traceCells runs one experiment on the digest grid and returns each
// cell's digest; dump names a cell whose trace is copied to tee.
func traceCells(t *testing.T, x digestExperiment, dump string, tee io.Writer) []cellDigest {
	t.Helper()
	c := &cellTracer{names: x.cells, dump: dump, tee: tee}
	c.open()
	o := digestOpts()
	o.Progress = c.closeCell
	if err := x.run(o, WithParallelism(1), WithTrace(c)); err != nil {
		t.Fatal(err)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(c.cells) != len(x.cells) {
		t.Fatalf("%s ran %d cells, the digest names %d", x.name, len(c.cells), len(x.cells))
	}
	return c.cells
}

var digestLine = regexp.MustCompile(`^(\S+) (\S+) (\d+) ([0-9a-f]{16})((?: [0-9a-f]{8})*)$`)

// readDigests parses the digest file into experiment → cell → digest.
func readDigests(t *testing.T) map[string]map[string]cellDigest {
	t.Helper()
	out := make(map[string]map[string]cellDigest)
	f, err := os.Open(digestFile)
	if os.IsNotExist(err) && *updateDigests {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := digestLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		n, _ := strconv.Atoi(m[3])
		if out[m[1]] == nil {
			out[m[1]] = make(map[string]cellDigest)
		}
		out[m[1]][m[2]] = cellDigest{events: n, sum: m[4], checks: strings.Fields(m[5])}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDifference names the window of events the first difference
// between two digests of one cell lies in.
func firstDifference(got, want cellDigest) string {
	for i := range min(len(got.checks), len(want.checks)) {
		if got.checks[i] != want.checks[i] {
			return fmt.Sprintf("events #%d–#%d", i*digestEvery+1, (i+1)*digestEvery)
		}
	}
	k := min(len(got.checks), len(want.checks))
	return fmt.Sprintf("events #%d–#%d", k*digestEvery+1, min(got.events, want.events)+1)
}

// TestDecisionDigest holds every cell's trace to its digest. A failure
// names the experiment, the cell and the window of events holding the
// first difference, with a repro that writes that cell's trace; run it
// in this tree and in the parent's and diff the two files.
func TestDecisionDigest(t *testing.T) {
	want := readDigests(t)
	got := make(map[string][]string)
	xs := digestExperiments(digestOpts())
	for _, x := range xs {
		t.Run(x.name, func(t *testing.T) {
			var tee *os.File
			if *digestDump != "" && slices.Contains(x.cells, *digestCell) {
				var err error
				if tee, err = os.Create(*digestDump); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := tee.Close(); err != nil {
						t.Error(err)
					}
					t.Logf("wrote the trace of %s %s to %s", x.name, *digestCell, *digestDump)
				}()
			}
			var w io.Writer
			if tee != nil {
				w = tee
			}
			cells := traceCells(t, x, *digestCell, w)
			for i, d := range cells {
				got[x.name] = append(got[x.name], fmt.Sprintf("%s %s %v", x.name, x.cells[i], d))
				if *updateDigests {
					continue
				}
				w, ok := want[x.name][x.cells[i]]
				if !ok {
					t.Errorf("%s %s: not in %s (regenerate it with -update)", x.name, x.cells[i], digestFile)
					continue
				}
				if d.sum == w.sum && d.events == w.events {
					continue
				}
				t.Errorf("%s %s: decisions moved: the first difference lies in %s (%d events here, %d in %s)\n"+
					"  repro: go test -count=1 -run 'TestDecisionDigest/%s$' ./internal/experiments/ -args -digest.cell '%s' -digest.dump /tmp/%s.jsonl",
					x.name, x.cells[i], firstDifference(d, w), d.events, w.events, digestFile, x.name, x.cells[i], x.name)
			}
		})
	}
	if !*updateDigests {
		return
	}
	// Experiments a -run filter skipped keep their lines.
	var b strings.Builder
	b.WriteString("# experiment cell events sha256[:8] checkpoint-per-256-events...\n")
	b.WriteString("# Regenerate: go test -run TestDecisionDigest ./internal/experiments/ -update\n")
	for _, x := range xs {
		lines := got[x.name]
		if lines == nil {
			for _, name := range x.cells {
				if d, ok := want[x.name][name]; ok {
					lines = append(lines, fmt.Sprintf("%s %s %v", x.name, name, d))
				}
			}
		}
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", digestFile)
}

package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	c := Chart{Title: "demo", XLabel: "x", YLabel: "y"}
	out, err := c.Render([]Series{
		{Label: "up", Marker: 'u', X: []float64{0, 1, 2}, Y: []float64{0, 5, 10}},
		{Label: "down", Marker: 'd', X: []float64{0, 1, 2}, Y: []float64{10, 5, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "u=up", "d=down", "x: x   y: y", "10", "0", "+--"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// title + 20 grid rows + axis + xlabels + labels line + legend.
	if len(lines) < 9 {
		t.Errorf("too few lines: %d\n%s", len(lines), out)
	}
}

func TestRenderMarkerPlacement(t *testing.T) {
	c := Chart{}
	out, err := c.Render([]Series{{Label: "s", Marker: '#', X: []float64{0, 10}, Y: []float64{0, 10}}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	// Top row must contain the high point at the right edge, bottom row
	// the low point at the left edge.
	if !strings.HasSuffix(strings.TrimRight(lines[0], " "), "#") {
		t.Errorf("top row %q lacks right-edge marker", lines[0])
	}
	bottom := lines[19]
	idx := strings.Index(bottom, "|")
	if idx < 0 || idx+1 >= len(bottom) || bottom[idx+1] != '#' {
		t.Errorf("bottom row %q lacks left-edge marker", bottom)
	}
}

func TestRenderErrors(t *testing.T) {
	c := Chart{}
	if _, err := c.Render([]Series{{Label: "bad", X: []float64{1}, Y: []float64{1, 2}}}); err == nil {
		t.Error("mismatched series accepted")
	}
	if _, err := c.Render(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := c.Render([]Series{{Label: "nan", X: []float64{math.NaN()}, Y: []float64{1}}}); err == nil {
		t.Error("all-NaN input accepted")
	}
}

func TestRenderSkipsNonFinite(t *testing.T) {
	c := Chart{}
	out, err := c.Render([]Series{{
		Label: "s",
		X:     []float64{0, 1, 2},
		Y:     []float64{1, math.Inf(1), 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	plotted := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			plotted += strings.Count(line, "*")
		}
	}
	if plotted != 2 {
		t.Errorf("want 2 plotted points, got %d:\n%s", plotted, out)
	}
}

func TestYMaxClamp(t *testing.T) {
	c := Chart{YMax: 100}
	out, err := c.Render([]Series{{
		Label: "s",
		X:     []float64{0, 1},
		Y:     []float64{10, 1e9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "100") {
		t.Errorf("clamped axis label missing:\n%s", out)
	}
	if strings.Contains(out, "1e+09") {
		t.Errorf("unclamped label present:\n%s", out)
	}
}

func TestDefaultMarker(t *testing.T) {
	c := Chart{}
	out, err := c.Render([]Series{{Label: "s", X: []float64{0}, Y: []float64{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("default marker missing:\n%s", out)
	}
}

// Package textplot renders small multi-series line charts as plain text,
// used by cmd/batbench to draw the paper's figures in a terminal.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one labelled curve. X and Y must have equal lengths. Marker
// is the character plotted at each data point.
type Series struct {
	Label  string
	Marker byte
	X, Y   []float64
}

// Chart is a fixed-size character-grid chart: a 60×20 plot area inside
// the axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// YMax optionally clamps the y axis (values above are drawn at the
	// top edge); zero means autoscale. Useful for response-time curves
	// that explode past saturation.
	YMax float64
}

// Render draws the series onto the grid and returns the chart text.
func (c Chart) Render(series []Series) (string, error) {
	const w, h = 60, 20 // plot columns and rows, excluding axes
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("textplot: series %q has %d x vs %d y", s.Label, len(s.X), len(s.Y))
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if first {
				xmin, xmax, ymin, ymax = x, x, y, y
				first = false
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if first {
		return "", fmt.Errorf("textplot: no finite data")
	}
	if c.YMax > 0 && ymax > c.YMax {
		ymax = c.YMax
	}
	if ymin > 0 {
		ymin = 0 // charts in the paper are zero-based
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		f := (x - xmin) / (xmax - xmin)
		i := int(math.Round(f * float64(w-1)))
		return clamp(i, 0, w-1)
	}
	row := func(y float64) int {
		f := (y - ymin) / (ymax - ymin)
		i := int(math.Round(f * float64(h-1)))
		return clamp(h-1-i, 0, h-1)
	}
	for _, s := range series {
		m := s.Marker
		if m == 0 {
			m = '*'
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			grid[row(y)][col(x)] = m
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for i, line := range grid {
		label := strings.Repeat(" ", pad)
		if i == 0 {
			label = fmt.Sprintf("%*s", pad, yTop)
		}
		if i == h-1 {
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", w))
	xl := fmt.Sprintf("%.3g", xmin)
	xr := fmt.Sprintf("%.3g", xmax)
	gap := w - len(xl) - len(xr)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", pad), xl, strings.Repeat(" ", gap), xr)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	var legend []string
	for _, s := range series {
		m := s.Marker
		if m == 0 {
			m = '*'
		}
		legend = append(legend, fmt.Sprintf("%c=%s", m, s.Label))
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", pad), strings.Join(legend, "  "))
	return b.String(), nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"batsched/internal/textplot"
)

var figureMarkers = map[string]byte{
	"NODC":       'n',
	"ASL":        'a',
	"CHAIN":      'C',
	"K2":         'K',
	"C2PL":       '2',
	"CHAIN-C2PL": 'c',
	"K2-C2PL":    'k',
}

func markerFor(label string) byte {
	if m, ok := figureMarkers[label]; ok {
		return m
	}
	return '*'
}

// sweepSeries converts sweeps into chart series with y = f(point).
func sweepSeries(sweeps []Sweep, f func(Point) float64) []textplot.Series {
	out := make([]textplot.Series, 0, len(sweeps))
	for _, s := range sweeps {
		se := textplot.Series{Label: s.Label, Marker: markerFor(s.Label)}
		for _, p := range s.Points {
			se.X = append(se.X, p.Lambda)
			se.Y = append(se.Y, f(p))
		}
		out = append(out, se)
	}
	return out
}

// RenderFigure6 draws Experiment 1's arrival rate vs. mean response time.
func (r *Experiment1Result) RenderFigure6() string {
	return renderRTFigure("Figure 6. Experiment1: Arrival Rate vs. Response Time", r.Sweeps, r.RTTarget)
}

// RenderFigure7 draws Experiment 1's arrival rate vs. throughput and the
// useful-utilization ratios relative to NODC.
func (r *Experiment1Result) RenderFigure7() string {
	var b strings.Builder
	chart := textplot.Chart{
		Title:  "Figure 7. Experiment1: Arrival Rate vs. Throughput",
		XLabel: "arrival rate (TPS)",
		YLabel: "throughput (TPS)",
	}
	s, err := chart.Render(sweepSeries(r.Sweeps, func(p Point) float64 { return p.Result.Throughput }))
	if err == nil {
		b.WriteString(s)
	}
	b.WriteString("\n")
	b.WriteString(r.renderThroughputTable())
	return b.String()
}

func (r *Experiment1Result) renderThroughputTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput at mean RT = %.0f s (interpolated):\n", r.RTTarget)
	var nodcTPS float64
	for _, s := range r.Sweeps {
		if s.Label == "NODC" {
			nodcTPS, _ = s.ThroughputAt(r.RTTarget)
		}
	}
	fmt.Fprintf(&b, "  %-12s %10s %18s\n", "scheduler", "TPS@RT", "useful util (vs NODC)")
	for _, s := range r.Sweeps {
		tps, exact := s.ThroughputAt(r.RTTarget)
		note := ""
		if !exact {
			note = "~"
		}
		ratio := "-"
		if nodcTPS > 0 {
			ratio = fmt.Sprintf("%.0f%%", 100*tps/nodcTPS)
		}
		fmt.Fprintf(&b, "  %-12s %9.3f%s %18s\n", s.Label, tps, note, ratio)
	}
	return b.String()
}

// RenderFigure9 draws Experiment 3's arrival rate vs. mean response time.
func (r *Experiment3Result) RenderFigure9() string {
	out := renderRTFigure("Figure 9. Experiment3: Arrival Rate vs. Response Time", r.Sweeps, r.RTTarget)
	var b strings.Builder
	b.WriteString(out)
	fmt.Fprintf(&b, "\nThroughput at mean RT = %.0f s:\n", r.RTTarget)
	for _, s := range r.Sweeps {
		tps, exact := s.ThroughputAt(r.RTTarget)
		note := ""
		if !exact {
			note = " (no crossing; last point)"
		}
		fmt.Fprintf(&b, "  %-12s %.3f TPS%s\n", s.Label, tps, note)
	}
	return b.String()
}

func renderRTFigure(title string, sweeps []Sweep, rtTarget float64) string {
	chart := textplot.Chart{
		Title:  title,
		XLabel: "arrival rate (TPS)",
		YLabel: "mean response time (s)",
		YMax:   4 * rtTarget, // keep the thrashing tails from flattening the plot
	}
	s, err := chart.Render(sweepSeries(sweeps, func(p Point) float64 { return p.Result.MeanRT }))
	if err != nil {
		return fmt.Sprintf("%s: %v\n", title, err)
	}
	return s
}

// RenderFigure8 draws Experiment 2's NumHots vs. throughput at the RT
// target.
func (r *Experiment2Result) RenderFigure8() string {
	xs := make([]float64, len(r.NumHots))
	heads := make([]string, len(r.NumHots))
	for i, nh := range r.NumHots {
		xs[i], heads[i] = float64(nh), fmt.Sprintf("hots=%d", nh)
	}
	return renderVariantFigure(fmt.Sprintf("Figure 8. Experiment2: Num. of Hot Partitions vs. Throughput at RT = %.0f s", r.RTTarget),
		"NumHots", xs, heads, r.TPS)
}

// RenderFigure10 draws Experiment 4's error ratio vs. throughput at the
// RT target.
func (r *Experiment4Result) RenderFigure10() string {
	heads := make([]string, len(r.Sigmas))
	for i, sg := range r.Sigmas {
		heads[i] = fmt.Sprintf("σ=%.2g", sg)
	}
	return renderVariantFigure(fmt.Sprintf("Figure 10. Experiment4: Error Ratio vs. Throughput at RT = %.0f s", r.RTTarget),
		"error std-dev sigma", r.Sigmas, heads, r.TPS)
}

// renderVariantFigure draws a variant axis (x, one column heading per
// variant) against each scheduler's throughput at the RT target: a chart,
// then the table.
func renderVariantFigure(title, xLabel string, xs []float64, heads []string, tps map[string][]float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	labels := sortedLabels(tps)
	var series []textplot.Series
	for _, l := range labels {
		series = append(series, textplot.Series{Label: l, Marker: markerFor(l), X: xs, Y: tps[l]})
	}
	chart := textplot.Chart{XLabel: xLabel, YLabel: "TPS at RT target"}
	if s, err := chart.Render(series); err == nil {
		b.WriteString(s)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-12s", "scheduler")
	for _, h := range heads {
		fmt.Fprintf(&b, " %8s", h)
	}
	b.WriteString("\n")
	for _, l := range labels {
		fmt.Fprintf(&b, "  %-12s", l)
		for i := range heads {
			fmt.Fprintf(&b, " %8.3f", tps[l][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortedLabels(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// CSV renders a sweep grid as comma-separated values for offline
// plotting: scheduler,lambda,meanRT,tps,cnUtil,dnUtil.
func CSV(sweeps []Sweep) string {
	return CSVWithVariant("", sweeps)
}

// CSVWithVariant prefixes every row with a variant column (NumHots or σ
// value for the grouped figures); an empty variant omits the column.
func CSVWithVariant(variant string, sweeps []Sweep) string {
	var b strings.Builder
	if variant != "" {
		b.WriteString("variant,")
	}
	b.WriteString("scheduler,lambda,mean_rt_s,tps,cn_util,dn_util,completed,aborts,delays,blocks\n")
	for _, s := range sweeps {
		for _, p := range s.Points {
			r := p.Result
			if variant != "" {
				fmt.Fprintf(&b, "%s,", variant)
			}
			fmt.Fprintf(&b, "%s,%g,%g,%g,%g,%g,%d,%d,%d,%d\n",
				s.Label, p.Lambda, r.MeanRT, r.Throughput, r.CNUtilization,
				r.MeanNodeUtil, r.Completed, r.AdmissionAborts, r.RequestDelays, r.RequestBlocks)
		}
	}
	return b.String()
}

// GroupedCSV concatenates variant-labelled sweep grids (Figures 8/10),
// keeping one header.
func GroupedCSV(variants []string, groups [][]Sweep) string {
	var b strings.Builder
	for i, g := range groups {
		block := CSVWithVariant(variants[i], g)
		if i > 0 {
			// Drop the repeated header line.
			if nl := strings.IndexByte(block, '\n'); nl >= 0 {
				block = block[nl+1:]
			}
		}
		b.WriteString(block)
	}
	return b.String()
}

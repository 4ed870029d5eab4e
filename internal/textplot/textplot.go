// Package textplot renders small scatter/line plots as ASCII text. The
// experiment harness uses it to print the paper's figures (PR curves,
// block-score curves, parameter sweeps) directly in terminal output next to
// the numeric series they are drawn from.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line/point set. X and Y must have equal length;
// NaN/Inf points are skipped.
type Series struct {
	Name   string
	Marker rune
	X, Y   []float64
}

// Plot is a single chart. The zero value is unusable; construct with New.
type Plot struct {
	title          string
	xLabel, yLabel string
	series         []Series
}

// The canvas size in characters.
const width, height = 72, 20

// New returns an empty plot.
func New(title, xLabel, yLabel string) *Plot {
	return &Plot{title: title, xLabel: xLabel, yLabel: yLabel}
}

// Add appends a series. Markers default to a per-series letter when 0.
func (p *Plot) Add(s Series) {
	if s.Marker == 0 {
		s.Marker = rune('a' + len(p.series)%26)
	}
	p.series = append(p.series, s)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Render draws the plot. Plots with no finite points render a placeholder
// body so harness output stays aligned.
func (p *Plot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.title)

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range p.series {
		for i := range s.X {
			if i >= len(s.Y) || !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			points++
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if points == 0 {
		sb.WriteString("  (no data)\n")
		return sb.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for _, s := range p.series {
		for i := range s.X {
			if i >= len(s.Y) || !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			c := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			r := height - 1 - int(math.Round((s.Y[i]-minY)/(maxY-minY)*float64(height-1)))
			grid[r][c] = s.Marker
		}
	}

	yLo, yHi := fmt.Sprintf("%.3g", minY), fmt.Sprintf("%.3g", maxY)
	margin := len(yLo)
	if len(yHi) > margin {
		margin = len(yHi)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", margin)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", margin, yHi)
		case height - 1:
			label = fmt.Sprintf("%*s", margin, yLo)
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, strings.TrimRight(string(grid[r]), " "))
	}
	fmt.Fprintf(&sb, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%s  %-*s%s\n", strings.Repeat(" ", margin), width-len(fmt.Sprintf("%.3g", maxX)), fmt.Sprintf("%.3g", minX), fmt.Sprintf("%.3g", maxX))
	if p.xLabel != "" || p.yLabel != "" {
		fmt.Fprintf(&sb, "%s  x: %s, y: %s\n", strings.Repeat(" ", margin), p.xLabel, p.yLabel)
	}
	for _, s := range p.series {
		fmt.Fprintf(&sb, "%s  [%c] %s\n", strings.Repeat(" ", margin), s.Marker, s.Name)
	}
	return sb.String()
}

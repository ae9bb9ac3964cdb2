// Package plot renders small ASCII charts so the experiment binaries can
// draw their figures directly in the terminal: multi-series line charts
// (Figures 4, 6 and 7) and box plots (Figure 8). The
// renderer is deliberately simple — fixed-size character grid, one glyph
// per series — but sufficient to eyeball shapes against the paper.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of a chart.
type Series struct {
	Name   string
	Values []float64
}

// seriesGlyphs assigns one glyph per series, cycling if necessary.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@'}

// Lines renders a multi-series line chart of the given width and height
// in characters (plot area, excluding axes). Series may have different
// lengths; x positions are scaled per series. NaN values are skipped.
func Lines(title string, series []Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	min, max := rangeOf(series)
	if !(max > min) {
		max = min + 1
	}
	grid := newGrid(width, height)
	for si, s := range series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		n := len(s.Values)
		if n == 0 {
			continue
		}
		for i, v := range s.Values {
			if math.IsNaN(v) {
				continue
			}
			x := 0
			if n > 1 {
				x = i * (width - 1) / (n - 1)
			}
			y := int(math.Round((v - min) / (max - min) * float64(height-1)))
			grid.set(x, height-1-y, glyph)
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	yLabelW := 9
	for row := 0; row < height; row++ {
		frac := float64(height-1-row) / float64(height-1)
		label := ""
		if row == 0 || row == height-1 || row == height/2 {
			label = fmt.Sprintf("%8.2f", min+frac*(max-min))
		}
		fmt.Fprintf(&b, "%*s |%s\n", yLabelW-1, label, string(grid.rows[row]))
	}
	fmt.Fprintf(&b, "%*s +%s\n", yLabelW-1, "", strings.Repeat("-", width))
	// Legend.
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesGlyphs[si%len(seriesGlyphs)], s.Name))
	}
	fmt.Fprintf(&b, "%*s %s\n", yLabelW, "", strings.Join(legend, "   "))
	return b.String()
}

// Box describes one box of a box-plot panel.
type Box struct {
	Label                    string
	Min, Q1, Median, Q3, Max float64
}

// Boxes renders horizontal box plots on a shared scale:
// |---[  |  ]---| with whiskers at Min/Max.
func Boxes(title string, boxes []Box, width int) string {
	if width < 20 {
		width = 20
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLabel := 0
	for _, bx := range boxes {
		lo = math.Min(lo, bx.Min)
		hi = math.Max(hi, bx.Max)
		if len(bx.Label) > maxLabel {
			maxLabel = len(bx.Label)
		}
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	scale := func(v float64) int {
		x := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		return x
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for _, bx := range boxes {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for i := scale(bx.Min); i <= scale(bx.Max); i++ {
			row[i] = '-'
		}
		for i := scale(bx.Q1); i <= scale(bx.Q3); i++ {
			row[i] = '='
		}
		row[scale(bx.Min)] = '|'
		row[scale(bx.Max)] = '|'
		row[scale(bx.Q1)] = '['
		row[scale(bx.Q3)] = ']'
		row[scale(bx.Median)] = 'M'
		fmt.Fprintf(&b, "%-*s %s\n", maxLabel, bx.Label, string(row))
	}
	fmt.Fprintf(&b, "%-*s %-*.2f%*.2f\n", maxLabel, "", width/2, lo, width-width/2, hi)
	return b.String()
}

type grid struct {
	rows [][]byte
	w, h int
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h}
	for i := 0; i < h; i++ {
		row := make([]byte, w)
		for j := range row {
			row[j] = ' '
		}
		g.rows = append(g.rows, row)
	}
	return g
}

func (g *grid) set(x, y int, c byte) {
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return
	}
	g.rows[y][x] = c
}

func rangeOf(series []Series) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if math.IsNaN(v) {
				continue
			}
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
	}
	if math.IsInf(min, 1) {
		return 0, 1
	}
	return min, max
}

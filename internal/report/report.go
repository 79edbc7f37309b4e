// Package report renders experiment results as aligned text tables,
// ASCII CDF plots and CSV — the harness's counterpart to the paper's
// gnuplot figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"github.com/vcabench/vcabench/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	// An absent signal (empty stats.Sample) surfaces as NaN; render it
	// as the same placeholder tables use for missing cells rather than
	// leaking "NaN" into output.
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// PlusMinus formats a replicated measurement as "mean ±ci" using the
// same float trimming as table cells. A NaN mean (absent signal) renders
// as the bare "-" placeholder; a NaN ci (undefined spread, e.g. a single
// replica) renders as "mean ±-" so the reader still sees the point
// estimate while the error term follows the NaN contract.
func PlusMinus(mean, ci float64) string {
	if math.IsNaN(mean) {
		return "-"
	}
	return trimFloat(mean) + " ±" + trimFloat(ci)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	all := make([][]string, 0, len(t.Rows)+1)
	if len(t.Header) > 0 {
		all = append(all, t.Header)
	}
	all = append(all, t.Rows...)
	widths := make([]int, 0)
	for _, row := range all {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(row []string) {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	if len(t.Header) > 0 {
		line(t.Header)
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
	}
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// pad right-pads s to w columns. Width is counted in runes, not bytes,
// so multibyte cells (the "±" of replicated metrics) align with their
// ASCII neighbors.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// CDFPlot renders one or more labelled CDF curves as ASCII art, with x
// expressed in the given unit label.
type CDFPlot struct {
	Title  string
	XLabel string
	Width  int // plot columns (default 64)
	Height int // plot rows (default 16)
	curves []cdfCurve
}

type cdfCurve struct {
	label string
	cdf   *stats.CDF
}

// Add appends a labelled curve built from raw samples.
func (p *CDFPlot) Add(label string, xs []float64) {
	p.curves = append(p.curves, cdfCurve{label: label, cdf: stats.NewCDF(xs)})
}

// Render draws all curves on a shared x-axis.
func (p *CDFPlot) Render(w io.Writer) {
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	if p.Title != "" {
		fmt.Fprintf(w, "## %s\n", p.Title)
	}
	if len(p.curves) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range p.curves {
		if c.cdf.Len() == 0 {
			continue
		}
		if v := c.cdf.Inverse(0); v < lo {
			lo = v
		}
		if v := c.cdf.Inverse(1); v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		fmt.Fprintln(w, "(no data)")
		return
	}
	if hi <= lo {
		hi = lo + 1
	}
	marks := "ox+*#@%&"
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range p.curves {
		mark := marks[ci%len(marks)]
		for col := 0; col < width; col++ {
			x := lo + (hi-lo)*float64(col)/float64(width-1)
			pv := c.cdf.At(x)
			row := int(math.Round((1 - pv) * float64(height-1)))
			if row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	for i, row := range grid {
		p100 := 1 - float64(i)/float64(height-1)
		fmt.Fprintf(w, "%5.2f |%s|\n", p100, string(row))
	}
	fmt.Fprintf(w, "      %s\n", strings.Repeat("-", width+2))
	fmt.Fprintf(w, "      %-*s%*s (%s)\n", width/2+1, trimFloat(lo), width/2+1, trimFloat(hi), p.XLabel)
	for ci, c := range p.curves {
		med := math.NaN()
		if c.cdf.Len() > 0 {
			med = c.cdf.Inverse(0.5)
		}
		fmt.Fprintf(w, "      %c %s (n=%d, median %s)\n", marks[ci%len(marks)], c.label, c.cdf.Len(), trimFloat(med))
	}
}

// String renders the plot to a string.
func (p *CDFPlot) String() string {
	var b strings.Builder
	p.Render(&b)
	return b.String()
}

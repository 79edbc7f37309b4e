package report

import (
	"io"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/vcabench/vcabench/internal/stats"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("alpha", 1.0)
	tb.AddRow("beta", 12.3456)
	tb.AddRow("gamma", 123.456)
	out := tb.String()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "12.3") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every data line has the value column at the same
	// offset as the header's.
	hdr := lines[1]
	col := strings.Index(hdr, "value")
	if col <= 0 {
		t.Fatalf("header layout: %q", hdr)
	}
}

func TestCDFPlotRender(t *testing.T) {
	p := CDFPlot{Title: "lags", XLabel: "ms", Width: 40, Height: 8}
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, float64(i)*2)
	}
	p.Add("near", xs)
	p.Add("far", ys)
	out := p.String()
	if !strings.Contains(out, "## lags") || !strings.Contains(out, "(ms)") {
		t.Errorf("plot chrome missing:\n%s", out)
	}
	if !strings.Contains(out, "o near") || !strings.Contains(out, "x far") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "median") {
		t.Error("median missing from legend")
	}
	// The 1.00 row and the lowest row both exist.
	if !strings.Contains(out, " 1.00 |") || !strings.Contains(out, " 0.00 |") {
		t.Errorf("probability axis wrong:\n%s", out)
	}
}

func TestCDFPlotEmpty(t *testing.T) {
	p := CDFPlot{Title: "empty"}
	if !strings.Contains(p.String(), "(no data)") {
		t.Error("empty plot should say so")
	}
	p2 := CDFPlot{}
	p2.Add("nothing", nil)
	if !strings.Contains(p2.String(), "(no data)") {
		t.Error("all-empty curves should say no data")
	}
}

func TestCDFPlotDegenerate(t *testing.T) {
	p := CDFPlot{Width: 20, Height: 5}
	p.Add("const", []float64{5, 5, 5, 5})
	out := p.String()
	if out == "" || !strings.Contains(out, "const") {
		t.Errorf("degenerate curve render:\n%s", out)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		3:          "3",
		3.14159:    "3.14",
		123.456:    "123.5",
		1000:       "1000",
		math.NaN(): "-", // absent signal, not the string "NaN"
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// An empty sample's statistics (NaN) must never leak into a rendered
// table — the audit behind the stats empty-sample guard.
func TestTableNaNCells(t *testing.T) {
	var empty stats.Sample
	tb := Table{Header: []string{"name", "mos"}}
	tb.AddRow("no-audio", empty.Mean())
	out := tb.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked:\n%s", out)
	}
	if !strings.Contains(out, "no-audio  -") {
		t.Errorf("empty metric should render '-':\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf strings.Builder
	err := WriteJSON(&buf, struct {
		A int     `json:"a"`
		B string  `json:"b"`
		C *int    `json:"c,omitempty"`
		D float64 `json:"d"`
	}{A: 1, B: "x", D: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("missing trailing newline")
	}
	if !strings.Contains(out, `"a": 1`) || !strings.Contains(out, `"d": 2.5`) {
		t.Errorf("fields missing:\n%s", out)
	}
	if strings.Contains(out, `"c"`) {
		t.Errorf("omitempty field serialized:\n%s", out)
	}
	// NaN is a caller bug and must surface as an error, not output.
	if err := WriteJSON(io.Discard, math.NaN()); err == nil {
		t.Error("NaN should fail to encode")
	}
}

func TestTableNoHeader(t *testing.T) {
	tb := Table{}
	tb.AddRow("just", "cells")
	out := tb.String()
	if strings.Contains(out, "--") {
		t.Errorf("separator without header:\n%s", out)
	}
}

func TestPlusMinus(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		mean, ci float64
		want     string
	}{
		{25.81, 1.13, "25.8 ±1.13"},
		{1, 0, "1 ±0"},
		{0.473, 0.0383, "0.473 ±0.0383"},
		{nan, 1, "-"},          // absent signal: bare placeholder
		{nan, nan, "-"},        // absent signal trumps absent spread
		{3.25, nan, "3.25 ±-"}, // defined mean, undefined spread (n=1)
	}
	for _, c := range cases {
		if got := PlusMinus(c.mean, c.ci); got != c.want {
			t.Errorf("PlusMinus(%v, %v) = %q, want %q", c.mean, c.ci, got, c.want)
		}
	}
}

// Multibyte cells (the ± of replicated metrics) must align by display
// width, not byte length.
func TestTableRuneAlignment(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("1 ±2", "x")
	tbl.AddRow("12345", "y")
	out := tbl.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if got, want := utf8.RuneCountInString(line), utf8.RuneCountInString("12345  y"); got != want {
			t.Errorf("line %q is %d runes, want %d", line, got, want)
		}
	}
}

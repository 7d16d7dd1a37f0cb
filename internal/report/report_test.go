package report

import (
	"math"
	"strings"
	"testing"

	"archline/internal/machine"
	"archline/internal/stats"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-longer", "22")
	tb.AddRow("gamma") // short row padded
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header line %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line %q", lines[2])
	}
	// Columns aligned: "value" column starts at the same offset in all rows.
	idx := strings.Index(lines[1], "value")
	if got := strings.Index(lines[3], "1"); got != idx {
		t.Errorf("misaligned column: %d != %d", got, idx)
	}
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d: %q", len(lines), out)
	}
	// No trailing spaces.
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Errorf("line has trailing spaces: %q", l)
		}
	}
}

func TestPanelHeader(t *testing.T) {
	h := PanelHeader(machine.MustByID(machine.GTXTitan))
	for _, want := range []string{"Gflop/J", "GB/J", "Tflop/s", "[81%]", "GB/s", "[83%]", "123 W (const)", "164 W (cap)"} {
		if !strings.Contains(h, want) {
			t.Errorf("panel header missing %q:\n%s", want, h)
		}
	}
}

func TestPlotRender(t *testing.T) {
	p := &Plot{
		Title:  "power",
		XLabel: "intensity (flop:Byte)",
		YLabel: "watts",
		Width:  40,
		Height: 10,
		Series: []PlotSeries{
			{Name: "titan", X: []float64{0.25, 1, 4, 16, 64}, Y: []float64{190, 250, 287, 287, 260}},
			{Name: "mali", X: []float64{0.25, 1, 4, 16, 64}, Y: []float64{5, 5.5, 6.1, 6.1, 5.8}},
		},
	}
	out := p.Render()
	for _, want := range []string{"power", "watts", "intensity", "legend:", "titan", "mali", "287", "+---"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Marker glyphs present.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("expected default markers * and o")
	}
}

func TestPlotLogY(t *testing.T) {
	p := &Plot{
		LogY:   true,
		Width:  30,
		Height: 8,
		Series: []PlotSeries{
			{Name: "s", X: []float64{1, 10, 100}, Y: []float64{1, 100, 10000}},
		},
	}
	out := p.Render()
	// On a log-y plot of y = x^2 the three points form a straight
	// diagonal: top-right and bottom-left markers exist.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			rows = append(rows, l[strings.Index(l, "|")+1:])
		}
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 plot rows, got %d", len(rows))
	}
	if !strings.Contains(rows[0], "*") || !strings.Contains(rows[len(rows)-1], "*") {
		t.Error("log-y diagonal endpoints missing")
	}
	mid := rows[len(rows)/2]
	if !strings.Contains(strings.Join(rows[2:6], ""), "*") {
		t.Errorf("log-y midpoint missing near centre: %q", mid)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	p := &Plot{Series: []PlotSeries{{Name: "nil"}}}
	if !strings.Contains(p.Render(), "no data") {
		t.Error("empty plot should say no data")
	}
	// Negative/zero values dropped on log-y without panicking.
	p = &Plot{
		LogY: true,
		Series: []PlotSeries{
			{Name: "bad", X: []float64{1, 2}, Y: []float64{-5, 0}},
		},
	}
	if !strings.Contains(p.Render(), "no data") {
		t.Error("all-invalid log-y plot should say no data")
	}
	// Single point: degenerate ranges handled.
	p = &Plot{Series: []PlotSeries{{Name: "pt", X: []float64{2}, Y: []float64{3}}}}
	out := p.Render()
	if !strings.Contains(out, "*") {
		t.Errorf("single point should render: %s", out)
	}
}

func TestPlotCustomMarker(t *testing.T) {
	p := &Plot{
		Series: []PlotSeries{
			{Name: "dots", X: []float64{1, 2}, Y: []float64{1, 2}, Marker: '.'},
		},
	}
	if !strings.Contains(p.Render(), ".") {
		t.Error("custom marker not used")
	}
}

func TestBoxplot(t *testing.T) {
	rows := []BoxRow{
		{Label: "alpha", Stats: statsFive(-0.1, 0.0, 0.2, 0.5, 1.0)},
		{Label: "beta-long", Stats: statsFive(0.1, 0.12, 0.15, 0.2, 0.3)},
	}
	out := Boxplot(rows, 40, 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 2 rows + scale, got %d:\n%s", len(lines), out)
	}
	for _, want := range []string{"alpha", "beta-long", "[", "]", "M", "|", ":"} {
		if !strings.Contains(out, want) {
			t.Errorf("boxplot missing %q:\n%s", want, out)
		}
	}
	// Median of alpha sits left of median of beta on the shared scale? No:
	// alpha median 0.2 > beta median 0.15, so alpha's M is further right.
	aM := strings.IndexByte(lines[0], 'M')
	bM := strings.IndexByte(lines[1], 'M')
	if aM <= bM {
		t.Errorf("median positions: alpha %d should exceed beta %d", aM, bM)
	}
	// Degenerate cases.
	if !strings.Contains(Boxplot(nil, 40, 0), "no data") {
		t.Error("empty rows")
	}
	flat := []BoxRow{{Label: "flat", Stats: statsFive(1, 1, 1, 1, 1)}}
	if out := Boxplot(flat, 10, math.NaN()); !strings.Contains(out, "M") {
		t.Error("flat distribution should still render")
	}
}

// statsFive builds a FiveNumber directly.
func statsFive(min, q1, med, q3, max float64) stats.FiveNumber {
	return stats.FiveNumber{Min: min, Q1: q1, Median: med, Q3: q3, Max: max}
}

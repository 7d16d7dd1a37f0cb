// Package report renders the experiment outputs as text: aligned tables
// (Table I), fig. 5-style panel annotations, and ASCII plots for the
// intensity-sweep figures, so `archline figN` regenerates a recognizable
// textual analogue of each figure in the paper.
package report

import (
	"fmt"
	"strings"

	"archline/internal/machine"
	"archline/internal/units"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	ncol := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		// Trim trailing padding.
		s := b.String()
		trimmed := strings.TrimRight(s, " ")
		b.Reset()
		b.WriteString(trimmed)
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// PanelHeader renders the three fig. 5 panel annotation lines for a
// platform, e.g.:
//
//	16.3 Gflop/J, 1.28 GB/J
//	4.02 Tflop/s [81%], 239 GB/s [83%]
//	123 W (const) + 164 W (cap)
func PanelHeader(p *machine.Platform) string {
	flopsJ := p.Single.PeakFlopsPerJoule()
	bytesJ := p.Single.PeakBytesPerJoule()
	fFrac, bFrac := p.SustainedFraction()
	return fmt.Sprintf("%s, %s\n%s [%.0f%%], %s [%.0f%%]\n%s (const) + %s (cap)",
		units.FormatFlopsPerJoule(flopsJ),
		units.FormatBytesPerJoule(bytesJ),
		units.FormatFlopRate(p.Sustained.SingleRate), 100*fFrac,
		units.FormatByteRate(p.Sustained.MemBW), 100*bFrac,
		units.FormatPower(p.Single.Pi1),
		units.FormatPower(p.Single.DeltaPi))
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 6 and 7), plus the baseline comparison motivated by
// Section 3.1 and two ablations. Each runner returns a Report with the same
// rows/series the paper presents; DESIGN.md maps experiment ids to paper
// artifacts and EXPERIMENTS.md records paper-versus-measured values.
//
// A runner runs exactly the parameters it is given: a zero field means
// zero (dL = 0, l = 0, no simulation column), never "use the default". The
// paper's parameters are one literal per experiment, built fresh on every
// call by an unexported defaults function (fig64Defaults for Fig64), which
// the registry passes.
package experiments

import (
	"fmt"
	"strings"
)

// Report is the result of one experiment run.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig6.3").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Params records the parameters used, for the experiment log.
	Params string
	// Tables hold the regenerated rows/series.
	Tables []Table
	// Notes carry conclusions and paper-versus-measured commentary.
	Notes []string
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(t.Columns) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Params != "" {
		fmt.Fprintf(&b, "params: %s\n", r.Params)
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(x float64) string { return fmt.Sprintf("%.4g", x) }

// f2 formats with fixed 2 decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// f4 formats with fixed 4 decimals.
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// d formats an int.
func d(x int) string { return fmt.Sprintf("%d", x) }

// pm formats "mean ± std".
func pm(mean, std float64) string { return fmt.Sprintf("%.1f ± %.1f", mean, std) }

// Package metrics provides the reporting primitives the benchmark
// harness uses to regenerate the paper's results: aligned ASCII
// tables (one per experiment) and labelled measurement series with
// linear-fit summaries ("measured time = a·n + b").
package metrics

import (
	"fmt"
	"io"
	"strings"

	"pramemu/internal/mathx"
)

// Table is a titled, column-aligned ASCII table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	if len(headers) == 0 {
		panic("metrics: table needs at least one column")
	}
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; it panics if the cell count mismatches the
// header count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns",
			len(cells), len(t.headers)))
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, args ...interface{}) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Series is a labelled sequence of (x, y) measurements with repeats:
// one experiment sweep, e.g. x = mesh side n, y = routing rounds.
type Series struct {
	Label string
	xs    []float64
	ys    []float64
}

// NewSeries creates an empty series.
func NewSeries(label string) *Series { return &Series{Label: label} }

// Add records a measurement.
func (s *Series) Add(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.xs) }

// Fit returns the least-squares slope, intercept and r² of y against
// x — the "measured constant" in front of the theorem's leading term.
func (s *Series) Fit() (slope, intercept, r2 float64) {
	return mathx.LinearFit(s.xs, s.ys)
}

// RatioSummary summarizes y/x over all points (mean and max), a
// scale-free way to report "time per unit of diameter".
func (s *Series) RatioSummary() mathx.Summary {
	ratios := make([]float64, len(s.xs))
	for i := range s.xs {
		ratios[i] = s.ys[i] / s.xs[i]
	}
	return mathx.Summarize(ratios)
}

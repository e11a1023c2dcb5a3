// Package metrics provides the reporting primitive the benchmark
// harness uses to regenerate the paper's results: aligned ASCII
// tables, one per experiment.
package metrics

import (
	"fmt"
	"io"
	"strings"
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

// Package harness regenerates every table and figure of the paper's
// evaluation section from the substrates in this repository: the traced
// tsunami communication matrix, the clustering strategies, the reliability
// model, and the hybrid protocol. The four-dimension tables (table2, fig5c,
// scaling) and the size studies (fig3a, fig3b, fig4a–fig4c) are scenarios
// run by pkg/hierclust's Pipeline; fig5a/fig5b, protocol and ablation read
// raw traced runs, the pipeline's or their own. Each experiment returns a Table
// that prints as aligned ASCII (and CSV), with paper-expected values
// recorded in expect.go for side-by-side comparison in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("fig3a", "table2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the cells, already formatted.
	Rows [][]string
	// Notes carry free-form commentary (heatmaps, verdicts, caveats).
	Notes []string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1000 || av < 0.001:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ASCII renders the table with aligned columns.
func (t *Table) ASCII() string {
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
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, cell)
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header + rows). Cells
// containing commas are quoted.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			sb.WriteString(c)
		}
	}
	sb.WriteByte('\n')
}

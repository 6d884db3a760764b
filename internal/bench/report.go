package bench

import (
	"fmt"
	"io"
	"strings"

	"st4ml/internal/engine"
)

// Table is a simple column-aligned report the experiment drivers print.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable starts a report table.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row, formatting each cell with %v (floats as %.3g via F).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// EngineCountersTable renders a Context's execution counters — including
// the fault-tolerance counters (task retries, speculative duplicates, and
// corrupt-block rereads) — as a one-row report table.
func EngineCountersTable(s engine.Snapshot) *Table {
	t := NewTable("Engine counters",
		"tasks", "records", "shuffleRecords", "shuffleMB", "taskTime",
		"retries", "speculated", "specWins", "corruptRereads")
	t.Add(s.TasksRun, s.RecordsOut, s.ShuffleRecords,
		float64(s.ShuffleBytes)/(1<<20), s.TaskTime,
		s.TaskRetries, s.SpeculativeLaunched, s.SpeculativeWins, s.CorruptRereads)
	return t
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	var sb strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	for _, row := range t.Rows {
		sb.Reset()
		for i, c := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", pad, c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	fmt.Fprintln(w)
}

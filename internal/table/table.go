// Package table renders the harness's result tables as aligned ASCII and
// as CSV, so every experiment prints the same rows the paper's statements
// predict and can also be piped into plotting tools.
package table

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-ordered result table. The zero value is ready
// to use.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: append([]string(nil), headers...)}
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered
// with %v, floats with %.4g.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.4g", v))
		case float32:
			row = append(row, fmt.Sprintf("%.4g", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// AddNote appends a free-form footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if dw := displayWidth(c); dw > widths[i] {
				widths[i] = dw
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-displayWidth(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quoting cells containing
// commas, quotes or newlines). Notes are omitted.
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the ASCII form.
func (t *Table) String() string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = t.WriteASCII(&b)
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// displayWidth approximates the printed width as the rune count (the
// tables here use at most a few non-ASCII math glyphs, which terminals
// render single-width).
func displayWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

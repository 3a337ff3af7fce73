// Package exp defines one reproducible experiment per table and figure in
// the paper's evaluation, runs workloads against schemes, and renders the
// results as aligned text tables whose rows and series match what the paper
// reports. cmd/deucebench and the repository-level benchmarks are thin
// wrappers around this package.
//
// Concurrency: Experiment.Run is safe to call from multiple goroutines —
// the process-wide memo of cells and streams is single-flight (Memo),
// recorded streams only grow under their own lock, and the cell executor fans cells
// out over an internal worker pool whose cells each build and own their
// scheme instance outright. The per-run observability hooks in RunConfig
// (Trace, Heatmap, Metrics) are the exception: they are single-writer,
// which is why the executor clears them before fanning out and why a cell
// run directly with one bypasses the memo.
package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Table is a rendered experiment result: a titled grid with one row per
// workload (or configuration) and one column per scheme/series.
type Table struct {
	// ID is the experiment identifier ("fig10"); set by the runner so
	// machine consumers (deucereport, the fidelity gate) can key on it.
	ID string
	// Title names the experiment, e.g. "Figure 10: bit flips per write".
	Title string
	// Note is an optional caption (parameters, normalization).
	Note string
	// Columns holds the column headers; Columns[0] labels the row key.
	Columns []string
	// Rows holds the data; each row must have len(Columns) cells.
	Rows [][]string

	// Values holds the experiment's headline quantities as structured
	// data, keyed "metric/series" (e.g. "flips/DEUCE" = 0.228,
	// "lifetime/DEUCE-HWL" = 2.19). These are the numbers the fidelity
	// gate checks against the paper, and the committed golden recording
	// (internal/fidelity/testdata/gate) pins byte for byte — the
	// machine-readable counterpart of the free-text paper references in
	// the title.
	Values map[string]float64
}

// SetValue records one headline quantity under "metric/series".
func (t *Table) SetValue(metric, series string, v float64) {
	if t.Values == nil {
		t.Values = make(map[string]float64)
	}
	t.Values[metric+"/"+series] = v
}

// AddRow appends a row, formatting each value with the table's cell rules:
// strings pass through, float64 renders with 3 significant decimals.
func (t *Table) AddRow(key string, values ...interface{}) {
	row := make([]string, 0, len(values)+1)
	row = append(row, key)
	for _, v := range values {
		switch x := v.(type) {
		case string:
			row = append(row, x)
		case float64:
			row = append(row, fmt.Sprintf("%.3f", x))
		case int:
			row = append(row, fmt.Sprintf("%d", x))
		case uint64:
			row = append(row, fmt.Sprintf("%d", x))
		default:
			row = append(row, fmt.Sprint(x))
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}

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

	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "  %-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 2
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString("  " + strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Cell is the typed form of one table cell in the JSON encoding. Raw is
// always the rendered text; Value and Unit are set when the cell parses as
// a number, with Unit preserving the "%" / "x" suffix the text form carries.
type Cell struct {
	Raw   string   `json:"raw"`
	Value *float64 `json:"value,omitempty"`
	Unit  string   `json:"unit,omitempty"`
}

// typedCell parses a rendered cell into its typed form.
func typedCell(raw string) Cell {
	c := Cell{Raw: raw}
	num := raw
	switch {
	case strings.HasSuffix(raw, "%"):
		c.Unit, num = "%", strings.TrimSuffix(raw, "%")
	case strings.HasSuffix(raw, "x"):
		c.Unit, num = "x", strings.TrimSuffix(raw, "x")
	}
	if v, err := strconv.ParseFloat(num, 64); err == nil {
		c.Value = &v
	} else {
		c.Unit = ""
	}
	return c
}

// tableJSON is the stable JSON schema for an experiment result. Consumers
// (deucereport, external plotting tools) depend on these field names; the
// golden-file test in table_test.go pins the encoding.
type tableJSON struct {
	ID      string             `json:"id,omitempty"`
	Title   string             `json:"title"`
	Note    string             `json:"note,omitempty"`
	Columns []string           `json:"columns"`
	Rows    [][]Cell           `json:"rows"`
	Values  map[string]float64 `json:"values,omitempty"`
}

// MarshalJSON encodes the table with typed cells, so machine consumers get
// numbers (and their % / x units) without re-parsing aligned text.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{
		ID:      t.ID,
		Title:   t.Title,
		Note:    t.Note,
		Columns: t.Columns,
		Rows:    make([][]Cell, len(t.Rows)),
		Values:  t.Values,
	}
	for i, row := range t.Rows {
		cells := make([]Cell, len(row))
		for j, raw := range row {
			cells[j] = typedCell(raw)
		}
		out.Rows[i] = cells
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the typed-cell encoding back into a Table (raw
// cell text only — the typed values are derivable via MarshalJSON).
func (t *Table) UnmarshalJSON(data []byte) error {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	t.ID, t.Title, t.Note, t.Columns, t.Values = in.ID, in.Title, in.Note, in.Columns, in.Values
	t.Rows = make([][]string, len(in.Rows))
	for i, row := range in.Rows {
		t.Rows[i] = make([]string, len(row))
		for j, c := range row {
			t.Rows[i][j] = c.Raw
		}
	}
	return nil
}

// CSV renders the table as RFC-4180 CSV (header row first), for plotting
// pipelines. The title and note travel as leading comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "# %s\n", t.Note)
	}
	w := csv.NewWriter(&b)
	// Percent and ratio suffixes are stripped so columns parse as
	// numbers directly.
	clean := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = strings.TrimSuffix(strings.TrimSuffix(c, "%"), "x")
		}
		return out
	}
	_ = w.Write(t.Columns)
	for _, row := range t.Rows {
		_ = w.Write(clean(row))
	}
	w.Flush()
	return b.String()
}

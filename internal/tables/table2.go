package tables

import (
	"strings"

	"switchmon/internal/backend"
	"switchmon/internal/sim"
)

// T2Cell is one probed or declared Table 2 cell.
type T2Cell struct {
	Value backend.Tri
	// Probed reports whether the cell was observed via a witness compile
	// (true) or taken from the declared capability vector (false — blank
	// cells and the controller-hosted OpenFlow column cannot be probed).
	Probed bool
}

// Mark renders the cell in the paper's notation.
func (c T2Cell) Mark() string {
	switch c.Value {
	case backend.Yes:
		return "yes"
	case backend.No:
		return "no"
	default:
		return ""
	}
}

// Table2 is the regenerated comparison matrix.
type Table2 struct {
	Columns []string // backend names
	// Descriptive rows (label -> per-backend text).
	Descriptive []T2DescRow
	// Boolean rows (label -> per-backend cell).
	Boolean []T2BoolRow
}

// T2DescRow is a descriptive Table 2 row.
type T2DescRow struct {
	Label string
	Cells []string
}

// T2BoolRow is a probed Table 2 row.
type T2BoolRow struct {
	Label string
	Cells []T2Cell
}

// BuildTable2 constructs the matrix by probing every backend with the
// witness properties. Each probe builds a fresh backend of the probed
// column only, so compiled witnesses cannot interfere with each other.
func BuildTable2() Table2 {
	cols := backend.Columns()
	t := Table2{}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.Caps.Name)
	}
	t.Descriptive = []T2DescRow{
		{Label: "State mechanism"},
		{Label: "Update datapath"},
		{Label: "Processing mode"},
		{Label: "Field access"},
	}
	for _, c := range cols {
		t.Descriptive[0].Cells = append(t.Descriptive[0].Cells, c.Caps.StateMechanism)
		t.Descriptive[1].Cells = append(t.Descriptive[1].Cells, c.Caps.UpdateDatapath)
		t.Descriptive[2].Cells = append(t.Descriptive[2].Cells, c.Caps.ProcessingMode)
		t.Descriptive[3].Cells = append(t.Descriptive[3].Cells, c.Caps.FieldAccess)
	}

	for _, w := range backend.Witnesses() {
		row := T2BoolRow{Label: w.Row}
		for _, c := range cols {
			cell := T2Cell{Value: w.Capability(c.Caps)}
			if cell.Value != backend.Blank && !backend.ControllerHosted(c.Caps) {
				// Observe the cell: compile the witness on a fresh
				// backend instance.
				if err := c.New(sim.NewScheduler()).AddProperty(w.Prop); err == nil {
					cell.Value = backend.Yes
				} else {
					cell.Value = backend.No
				}
				cell.Probed = true
			}
			row.Cells = append(row.Cells, cell)
		}
		t.Boolean = append(t.Boolean, row)
	}
	// Rows not expressible as property witnesses: taken from declared
	// capabilities.
	extra := []struct {
		label string
		get   func(backend.Capabilities) backend.Tri
	}{
		{"full provenance", func(c backend.Capabilities) backend.Tri { return c.FullProvenance }},
		{"drop visibility", func(c backend.Capabilities) backend.Tri { return c.DropVisibility }},
		{"egress metadata", func(c backend.Capabilities) backend.Tri { return c.EgressVisibility }},
	}
	for _, ex := range extra {
		row := T2BoolRow{Label: ex.label}
		for _, c := range cols {
			row.Cells = append(row.Cells, T2Cell{Value: ex.get(c.Caps)})
		}
		t.Boolean = append(t.Boolean, row)
	}
	return t
}

// RenderTable2 renders the regenerated Table 2 as aligned text. Probed
// cells are marked with an asterisk footnote.
func RenderTable2() string {
	t := BuildTable2()
	var b strings.Builder
	b.WriteString("Table 2 (regenerated: * cells observed by compiling witness properties)\n\n")
	var grid [][]string
	grid = append(grid, append([]string{"Semantic challenge"}, t.Columns...))
	for _, r := range t.Descriptive {
		grid = append(grid, append([]string{r.Label}, r.Cells...))
	}
	for _, r := range t.Boolean {
		row := []string{r.Label}
		for _, c := range r.Cells {
			mark := c.Mark()
			if c.Probed {
				mark += "*"
			}
			row = append(row, mark)
		}
		grid = append(grid, row)
	}
	writeGrid(&b, grid)
	b.WriteString("\nRows beyond the paper's table: drop visibility and egress metadata\n")
	b.WriteString("(the Sec 2.2 / 3.2 gaps), plus the Ideal column realizing Sec 2's feature set.\n")
	return b.String()
}

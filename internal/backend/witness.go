package backend

import (
	_ "embed"
	"fmt"
	"strings"

	"switchmon/internal/property"
)

// witnessSource holds the Table 2 witnesses, written in the property
// language.
//
//go:embed witness.properties
var witnessSource string

// Witness pairs one boolean Table 2 row with a minimal property requiring
// exactly that feature. The regenerated Table 2 derives its ✓/✗ cells by
// compiling these witnesses against each backend, so the table reports
// observed behaviour rather than transcription.
type Witness struct {
	// Row is the Table 2 row label.
	Row string
	// Prop is the minimal property requiring the row's feature.
	Prop *property.Property
	// Capability extracts the corresponding cell from a capability vector.
	Capability func(Capabilities) Tri
}

// witnessCells maps each witness row to its capability cell.
var witnessCells = map[string]func(Capabilities) Tri{
	"event-history":   func(c Capabilities) Tri { return c.EventHistory },
	"related-events":  func(c Capabilities) Tri { return c.RelatedEvents },
	"negative-match":  func(c Capabilities) Tri { return c.NegativeMatch },
	"rule-timeouts":   func(c Capabilities) Tri { return c.RuleTimeouts },
	"timeout-actions": func(c Capabilities) Tri { return c.TimeoutActions },
	"symmetric-match": func(c Capabilities) Tri { return c.SymmetricMatch },
	"wandering-match": func(c Capabilities) Tri { return c.WanderingMatch },
	"out-of-band":     func(c Capabilities) Tri { return c.OutOfBand },
	"counting":        func(c Capabilities) Tri { return c.Counting },
}

// Witnesses parses witness.properties: one probe per boolean Table 2
// row, in file order.
func Witnesses() []Witness {
	props, err := property.ParseAll(witnessSource)
	if err == nil && len(props) != len(witnessCells) {
		err = fmt.Errorf("backend: %d witnesses for %d Table 2 rows", len(props), len(witnessCells))
	}
	if err != nil {
		panic(err)
	}
	ws := make([]Witness, len(props))
	for i, p := range props {
		row := strings.TrimPrefix(p.Name, "witness-")
		cell := witnessCells[row]
		if cell == nil {
			panic(fmt.Sprintf("backend: witness %q probes no Table 2 row", p.Name))
		}
		ws[i] = Witness{Row: row, Prop: p, Capability: cell}
	}
	return ws
}

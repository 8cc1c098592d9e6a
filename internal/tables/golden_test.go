package tables

import (
	"os"
	"testing"

	"switchmon/internal/property"
)

// TestTablesGolden keeps docs/TABLES.txt what `go run ./cmd/tables`
// prints: Table 1 with the paper's cells, a blank line, then Table 2.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("../../docs/TABLES.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := RenderTable1(property.DefaultParams(), true) + "\n" + RenderTable2()
	if got != string(want) {
		t.Fatalf("docs/TABLES.txt is stale; regenerate it with go run ./cmd/tables > docs/TABLES.txt")
	}
}

package doccheck

import (
	"go/ast"
	"strings"
	"testing"
)

// TestTable2WrittenOnce keeps internal/backend's Table 2 approaches one
// row each over one chassis, paying state on the dataplane's own atoms:
//
//   - no type embeds the chassis, so an approach cannot come back as a
//     type of its own with overriding methods;
//   - no field is named seeDrops, seeEgress or seeOOB: visibility is read
//     from the capability vector, not set by hand per approach;
//   - no []uint64 rule table and no register array is declared: a state
//     transition is paid on a dataplane.Switch's flow table or register
//     file, not on a private model of them.
func TestTable2WrittenOnce(t *testing.T) {
	handSet := map[string]bool{"seeDrops": true, "seeEgress": true, "seeOOB": true}
	scanDir(t, "../backend", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					if len(f.Names) == 0 && strings.EqualFold(recvName(f.Type), "chassis") {
						t.Errorf("%s: a type embeds Chassis; an approach is a row of capabilities, not a type", at(f))
					}
					for _, name := range f.Names {
						if handSet[name.Name] {
							t.Errorf("%s: field %s hand-sets visibility; the chassis reads it from Capabilities", at(name), name.Name)
						}
					}
				}
			case *ast.ArrayType:
				if elt, ok := n.Elt.(*ast.Ident); !ok || elt.Name != "uint64" {
					return true
				}
				if n.Len == nil {
					t.Errorf("%s: a []uint64 rule table; pay flow-mods on dataplane.Table", at(n))
				} else {
					t.Errorf("%s: a register array of its own; write dataplane.RegisterFile", at(n))
				}
			}
			return true
		})
	})
}

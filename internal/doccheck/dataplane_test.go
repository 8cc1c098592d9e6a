package doccheck

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// TestDataplaneCopiesOnWrite keeps the switch's packet path copy on write.
// In internal/dataplane a packet is cloned only inside the two ActSetField
// branches — the ingress pipeline's (Switch.runPipeline) and the egress
// pipeline's (Switch.runEgress) — so a packet no rule rewrites is never
// copied, and nothing calls Encode: the packet-in byte count encodes into
// the switch's reused buffer with AppendEncode.
func TestDataplaneCopiesOnWrite(t *testing.T) {
	var cloners []string
	scanDir(t, "../../internal/dataplane", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				fn = recvName(fd.Recv.List[0].Type) + "." + fn
			}
			// Clone calls inside an ActSetField case are the allowed ones.
			allowed := map[token.Pos]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok && casesOn(cc, "ActSetField") {
					ast.Inspect(cc, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok && selName(call.Fun) == "Clone" {
							allowed[call.Pos()] = true
						}
						return true
					})
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch selName(call.Fun) {
				case "Clone":
					if !allowed[call.Pos()] {
						t.Errorf("%s: %s clones a packet outside an ActSetField branch; copy on write only", at(call), fn)
					} else {
						cloners = append(cloners, fn)
					}
				case "Encode":
					t.Errorf("%s: %s calls Encode; encode into a reused buffer with AppendEncode", at(call), fn)
				}
				return true
			})
		}
	})
	sort.Strings(cloners)
	if got, want := strings.Join(cloners, " "), "Switch.runEgress Switch.runPipeline"; got != want {
		t.Errorf("packets are cloned in [%s], want one ActSetField clone in each of [%s]", got, want)
	}
}

// casesOn reports whether a case clause lists the named constant.
func casesOn(cc *ast.CaseClause, name string) bool {
	for _, expr := range cc.List {
		if id, ok := expr.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

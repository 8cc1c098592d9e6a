package doccheck

import (
	"go/ast"
	"testing"
)

// TestSealingWithoutAClock keeps the exporter's sealing rule free of
// time: a batch seals when the sender is free or the batch reaches its
// target, never because it is old. So exporter.Config has no fixed
// batch size or age bound, no program file in internal/exporter starts a
// ticker, no seal reason is "age", and Exporter.Start launches the
// sender alone.
func TestSealingWithoutAClock(t *testing.T) {
	deleted := map[string]bool{"BatchSize": true, "MaxBatchAge": true}
	starts := 0
	scanDir(t, "../../internal/exporter", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			switch recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name {
			case "Exporter.Start":
				starts++
				gos := 0
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						gos++
					}
					return true
				})
				if gos != 1 {
					t.Errorf("exporter/%s: Start has %d go statements, want 1: the sender is the only goroutine it launches", at(fd), gos)
				}
			case "sealReason.String":
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Value == `"age"` {
						t.Errorf("exporter/%s: seal reason \"age\" is back; no batch seals for being old", at(lit))
					}
					return true
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Config" {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if deleted[name.Name] {
								t.Errorf("exporter/%s: Config.%s is back; BatchSizeMax is the one cap", at(name), name.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if name.Name == "sealAge" {
						t.Errorf("exporter/%s: sealAge is back; no batch seals for being old", at(name))
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "time" && (n.Sel.Name == "NewTicker" || n.Sel.Name == "Tick") {
					t.Errorf("exporter/%s: time.%s; the exporter seals on its sender's state, not on a clock", at(n), n.Sel.Name)
				}
			}
			return true
		})
	})
	if starts != 1 {
		t.Fatalf("found %d Exporter.Start methods, want 1; the scan is out of date", starts)
	}
}

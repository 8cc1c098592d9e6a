// Package doccheck enforces the repository's documentation bar: every
// exported declaration in every library package must carry a doc comment.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// libraryPackages walks internal/ for the directories whose exported API
// must be fully documented: every package with non-test Go in it, except
// the integration tests' helpers and this package (cmd mains and examples
// are exempt: their doc is the package comment).
func libraryPackages(t *testing.T, root string) []string {
	var dirs []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "integration" || name == "doccheck" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if dir := filepath.Dir(path); isSourceFile(d.Name()) && (len(dirs) == 0 || dirs[len(dirs)-1] != dir) {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// isSourceFile reports whether name is non-test Go source.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func TestEveryExportedIdentifierIsDocumented(t *testing.T) {
	dirs := libraryPackages(t, "../..")
	if len(dirs) < 20 {
		t.Fatalf("walk found only %d library packages: %v", len(dirs), dirs)
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range entries {
			if !isSourceFile(entry.Name()) {
				continue
			}
			path := filepath.Join(dir, entry.Name())
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			checkFile(t, fset, file)
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func checkFile(t *testing.T, fset *token.FileSet, file *ast.File) {
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: exported %s lacks a doc comment", fset.Position(pos), what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Methods on unexported receiver types are not part of the
			// public API even when their names are exported (interface
			// implementations like heap.Interface).
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "function "+d.Name.Name)
			}
		case *ast.GenDecl:
			// A doc comment on the grouped declaration covers its specs
			// (const blocks, var blocks).
			groupDocumented := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDocumented || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), "value "+n.Name)
						}
					}
				}
			}
		}
	}
}

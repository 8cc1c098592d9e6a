package doccheck

import (
	"go/ast"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAdminSurfaceWrittenOnce keeps the daemons' HTTP admin surface on
// one path, in every program file under internal/ and cmd/ (switchtop's
// read-only GET poller aside). One handler switches on
// http.MethodDelete — export.PropertiesHandler, behind switchmon's and
// the collector's /properties and the aggregator's fleet-wide
// /properties (a member's /fleet/properties takes a whole document by
// PUT and has no DELETE); one composite literal sets Status: "degraded"
// — export.HealthHandler's report, the member's and the fleet's; and
// http.NewRequest and http.DefaultClient appear in one function only —
// federation.AdminCall, the one admin call a scrape, a document PUT and
// a collector's -aggregate forward make, with its timeout.
func TestAdminSurfaceWrittenOnce(t *testing.T) {
	var deletes, degraded []string
	callers := map[string]bool{}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if filepath.Base(dir) == "switchtop" {
				return filepath.SkipDir
			}
			if !hasSourceFile(t, dir) {
				return nil
			}
			scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CaseClause:
						for _, e := range n.List {
							if mentionsHTTP(e, func(name string) bool { return name == "MethodDelete" }) {
								deletes = append(deletes, dir+"/"+at(n))
							}
						}
					case *ast.KeyValueExpr:
						key, ok := n.Key.(*ast.Ident)
						val, isLit := n.Value.(*ast.BasicLit)
						if ok && key.Name == "Status" && isLit && val.Kind == token.STRING && val.Value == `"degraded"` {
							degraded = append(degraded, dir+"/"+at(n))
						}
					}
					return true
				})
				clientSide := func(name string) bool { return strings.HasPrefix(name, "NewRequest") || name == "DefaultClient" }
				for _, decl := range file.Decls {
					if mentionsHTTP(decl, clientSide) {
						name := "package scope"
						if fd, ok := decl.(*ast.FuncDecl); ok {
							name = fd.Name.Name
						}
						callers[dir+"/"+at(decl)+" "+name] = true
					}
				}
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(deletes) != 1 {
		t.Errorf("http.MethodDelete is a switch case at %v, want once (export.PropertiesHandler)", deletes)
	}
	if len(degraded) != 1 {
		t.Errorf(`Status: "degraded" is set at %v, want once (export.HealthHandler)`, degraded)
	}
	var sites []string
	for site := range callers {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	if len(sites) != 1 || !strings.HasSuffix(sites[0], " AdminCall") {
		t.Errorf("http.NewRequest or http.DefaultClient is used in %v, want only federation.AdminCall", sites)
	}
}

// mentionsHTTP reports whether n contains a selector http.X with want(X).
func mentionsHTTP(n ast.Node, want func(name string) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" && want(sel.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

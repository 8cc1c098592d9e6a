package doccheck

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestIntrospectionWrittenOnce keeps the introspection surface on one
// path. The three record streams — /violations, /trace, /alerts — are
// each an obs.Log, the one generic type under internal/obs, and no
// struct there holds a slice of sequence-numbered records (a ring of its
// own). One function reads the "limit" query key (export.ReadPage, the
// ?since/?limit parser every stream and the aggregator share); one call
// sets a JSON indent (export.JSON, the one JSON answer); and the
// tracer and the state observatory declare no sampling mixer of their
// own — both call obs.InSample.
func TestIntrospectionWrittenOnce(t *testing.T) {
	var generics, rings, limitReaders, indents []string
	seen := map[string]bool{}
	for _, dir := range libraryPackages(t, "../..") {
		if seen[dir] {
			continue // the walk revisits a package whose files sort around a subdirectory
		}
		seen[dir] = true
		inObs := strings.Contains(dir+"/", "/internal/obs/")
		// seqd is the package's sequence-numbered record types: those
		// with a field named seq or Seq.
		seqd := map[string]bool{}
		var structs []*ast.StructType
		var ats []func(ast.Node) string
		scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if inObs && n.TypeParams != nil {
						generics = append(generics, dir+"/"+at(n)+" "+n.Name.Name)
					}
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								if strings.EqualFold(name.Name, "seq") {
									seqd[n.Name.Name] = true
								}
							}
						}
					}
				case *ast.StructType:
					structs = append(structs, n)
					ats = append(ats, at)
				case *ast.SelectorExpr:
					if n.Sel.Name == "SetIndent" {
						indents = append(indents, dir+"/"+at(n))
					}
				}
				return true
			})
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && readsLimit(fd) {
					limitReaders = append(limitReaders, dir+"/"+at(fd)+" "+fd.Name.Name)
				}
			}
			if strings.HasSuffix(dir, "/obs/tracer") || strings.HasSuffix(dir, "/obs/statesize") {
				for _, id := range declaredNames(file) {
					if id.Name == "mix64" || id.Name == "inClass" {
						t.Errorf("%s/%s: %s is declared; sampling is obs.InSample", dir, at(id), id.Name)
					}
				}
			}
		})
		if !inObs {
			continue
		}
		for i, st := range structs {
			for _, f := range st.Fields.List {
				var elt ast.Expr
				if arr, ok := f.Type.(*ast.ArrayType); ok {
					elt = arr.Elt
				}
				if id, ok := elt.(*ast.Ident); ok && seqd[id.Name] {
					rings = append(rings, dir+"/"+ats[i](f))
				}
			}
		}
	}
	if len(generics) != 1 || !strings.HasSuffix(generics[0], " Log") {
		t.Errorf("internal/obs declares generic types %v, want one: the Log every record stream is", generics)
	}
	if len(rings) != 0 {
		t.Errorf("structs under internal/obs hold sequence-numbered records in a slice of their own at %v; records live in an obs.Log", rings)
	}
	if len(limitReaders) != 1 || !strings.HasSuffix(limitReaders[0], " ReadPage") {
		t.Errorf("the \"limit\" query key is read in %v, want only export.ReadPage", limitReaders)
	}
	if len(indents) != 1 {
		t.Errorf("SetIndent is called at %v, want once (export.JSON)", indents)
	}
}

// readsLimit reports whether fd reads the "limit" key from a query: a
// Get("limit") call or a ["limit"] index.
func readsLimit(fd *ast.FuncDecl) bool {
	found := false
	isLimit := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(lit.Value)
		return err == nil && s == "limit"
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if selName(n.Fun) == "Get" && len(n.Args) == 1 && isLimit(n.Args[0]) {
				found = true
			}
		case *ast.IndexExpr:
			if isLimit(n.Index) {
				found = true
			}
		}
		return !found
	})
	return found
}

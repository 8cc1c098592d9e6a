package doccheck

import (
	"go/ast"
	"io/fs"
	"path/filepath"
	"sort"
	"testing"
)

// TestPropertySetWrittenOnce keeps a property set on one mechanism, in
// every program file under internal/ and cmd/: one function renders a
// set as a wire.ConfigProperties config (a composite literal with Kind:
// wire.ConfigProperties), federation.PropertySetDoc.Config, and one
// applies a set to an engine, diffing it against the running one (a
// function that records both a ledger remove and a ledger install),
// core's propSet.apply, which every engine embeds and which
// federation.PropertySet.converge — shared by the collector, switchmon's
// exporter handler and the aggregation tier's members — calls once per
// document. No name of what those replaced may come back: the per-member
// op log's lifecycleOp, opMu, RemoteProperties, applyPropertySet, a
// collector-local propertySet, scrapeErrs, or a Local field on
// MemberEndpoints; the engine's one-property-at-a-time RemoveProperty and
// ReplaceProperty; or accepts, the throwaway engine that checked a set.
func TestPropertySetWrittenOnce(t *testing.T) {
	deleted := map[string]bool{"lifecycleOp": true, "opMu": true, "RemoteProperties": true,
		"applyPropertySet": true, "propertySet": true, "scrapeErrs": true,
		"RemoveProperty": true, "ReplaceProperty": true, "accepts": true}
	var renders, applies []string
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || !hasSourceFile(t, dir) {
				return err
			}
			scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if deleted[n.Name] {
							t.Errorf("%s/%s: %s is back; the property set is one document", dir, at(n), n.Name)
						}
					case *ast.TypeSpec:
						if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "MemberEndpoints" {
							for _, f := range st.Fields.List {
								for _, name := range f.Names {
									if name.Name == "Local" {
										t.Errorf("%s/%s: MemberEndpoints.Local is back", dir, at(name))
									}
								}
							}
						}
					}
					return true
				})
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					site := dir + "/" + at(fd) + " " + fd.Name.Name
					if rendersProperties(fd.Body) {
						renders = append(renders, site)
					}
					if diffApplies(fd.Body) {
						applies = append(applies, site)
					}
				}
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(renders)
	sort.Strings(applies)
	if len(renders) != 1 || filepath.Base(filepath.Dir(renders[0])) != "federation" {
		t.Errorf("a wire.ConfigProperties config is rendered in %v, want once, in internal/federation", renders)
	}
	if len(applies) != 1 || filepath.Base(filepath.Dir(applies[0])) != "core" {
		t.Errorf("a property set is diff-applied onto an engine in %v, want once, in internal/core", applies)
	}
}

// rendersProperties reports whether n holds a key-value pair
// Kind: wire.ConfigProperties.
func rendersProperties(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			key, isIdent := kv.Key.(*ast.Ident)
			sel, isSel := kv.Value.(*ast.SelectorExpr)
			if isIdent && isSel && key.Name == "Kind" && sel.Sel.Name == "ConfigProperties" {
				found = true
			}
		}
		return !found
	})
	return found
}

// diffApplies reports whether n records both a ledger remove and a
// ledger install.
func diffApplies(n ast.Node) bool {
	return calls(n, "RecordRemove") && calls(n, "RecordInstall")
}

// calls reports whether n calls a method or function named name.
func calls(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

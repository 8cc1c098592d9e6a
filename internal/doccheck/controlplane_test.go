package doccheck

import (
	"go/ast"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestControlPlaneWrittenOnce keeps the fabric's replicated
// configuration on one path. The property set and the fleet membership
// both ride wire.Config, acknowledged by no frame: no program file under
// internal/ or cmd/ declares or references the per-kind frames, codecs,
// bounds, feature bits, exporter callbacks, broadcasts, the
// protocol-version knob or the config ack that path replaced; the
// collector has one broadcast; exporter.Config has one config-handler
// field; and the exporter judges no epoch, so the federated router's
// high water is a switch's one stale rule.
func TestControlPlaneWrittenOnce(t *testing.T) {
	deleted := map[string]bool{}
	for _, kind := range []string{"PropertySetUpdate", "PropertySetAck", "FleetConfig", "FleetConfigAck"} {
		deleted[kind] = true
		deleted["Frame"+kind] = true
		deleted["Append"+kind] = true
		deleted["decode"+kind] = true
	}
	for _, name := range []string{"maxPropertySetProps", "maxFleetMembers", "FeatureLifecycle", "FeatureFleet",
		"OnPropertySet", "OnFleetConfig", "ProtocolVersion", "BroadcastPropertySet", "BroadcastFleetConfig",
		"ConfigAck", "FrameConfigAck", "AppendConfigAck", "ConfigAcks", "ackOwed"} {
		deleted[name] = true
	}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || !hasSourceFile(t, dir) {
				return err
			}
			scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
				ast.Inspect(file, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && deleted[id.Name] {
						t.Errorf("%s/%s: %s is back; replicated configuration rides wire.Config", dir, at(id), id.Name)
					}
					return true
				})
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	scanDir(t, "../../internal/exporter", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "HighWater" {
				t.Errorf("exporter/%s: the exporter judges epochs again; it relays, and the router's high water is the stale rule", at(id))
			}
			return true
		})
	})

	var broadcasts []string
	scanDir(t, "../../internal/collector", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && recvName(fd.Recv.List[0].Type) == "Collector" && strings.HasPrefix(fd.Name.Name, "Broadcast") {
				broadcasts = append(broadcasts, at(fd)+" "+fd.Name.Name)
			}
		}
	})
	if len(broadcasts) != 1 {
		t.Errorf("Collector declares %d Broadcast* methods, want 1: %v", len(broadcasts), broadcasts)
	}

	// A config-handler field is one whose type holds a func taking a wire
	// type.
	var handlers []string
	scanDir(t, "../../internal/exporter", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				if takesWireType(f.Type) {
					handlers = append(handlers, at(f))
				}
			}
			return false
		})
	})
	if len(handlers) != 1 {
		t.Errorf("exporter.Config has %d config-handler fields, want 1 (one table indexed by kind): %v", len(handlers), handlers)
	}
}

// hasSourceFile reports whether dir directly holds a non-test Go file.
func hasSourceFile(t *testing.T, dir string) bool {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if isSourceFile(m) {
			return true
		}
	}
	return false
}

// takesWireType reports whether expr contains a func type with a
// parameter from package wire.
func takesWireType(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok {
			return !found
		}
		ast.Inspect(ft.Params, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "wire" {
					found = true
				}
			}
			return !found
		})
		return false
	})
	return found
}

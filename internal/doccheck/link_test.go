package doccheck

import (
	"go/ast"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestLinkWrittenOnce keeps the switch→collector link to one dialect and
// one shipping path. wire speaks one protocol version, and a traced batch
// is a Batch frame with a trailing trace block: no program file under
// internal/ or cmd/ declares or references the second version's window,
// the traced-batch frame type, or the socket-buffer and jitter-seed knobs
// that nothing set. switchmon ships through federation.Router alone, so
// it registers no -collectors flag beside -export.
func TestLinkWrittenOnce(t *testing.T) {
	deleted := map[string]bool{"MinVersion": true, "FrameTracedBatch": true, "ConnWriteBuffer": true, "ConnReadBuffer": true}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || !hasSourceFile(t, dir) {
				return err
			}
			scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
				ast.Inspect(file, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && deleted[id.Name] {
						t.Errorf("%s/%s: %s is back; the link speaks one version with one batch frame", dir, at(id), id.Name)
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
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					if name.Name == "Seed" {
						t.Errorf("exporter/%s: Config.Seed is back; the backoff jitter is seeded by the DPID", at(name))
					}
				}
			}
			return false
		})
	})

	if sites := flagRegistrations(t, "../../cmd/switchmon")["collectors"]; len(sites) > 0 {
		t.Errorf("switchmon registers -collectors at %v; -export takes every collector", sites)
	}
}

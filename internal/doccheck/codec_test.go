package doccheck

import (
	"go/ast"
	"strconv"
	"testing"
)

// TestEventCodecWrittenOnce keeps one event grammar. Every wire frame's
// layout is its walk, run in both directions, so internal/wire declares
// no per-frame decoder and no separate event or trace-block encoder.
// A trace file is the link's own bytes, so internal/trace reads and
// writes it through internal/wire and imports none of the packages a
// text grammar of its own would need.
func TestEventCodecWrittenOnce(t *testing.T) {
	deleted := map[string]bool{
		"decodeHello": true, "decodeHelloAck": true, "decodeAck": true, "decodeConfig": true,
		"decodeConfigAck": true, "decodeBatch": true, "decodeEvent": true, "decodeTraceBlock": true,
		"appendEvent": true, "appendTraceBlock": true,
	}
	scanDir(t, "../../internal/wire", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, id := range declaredNames(file) {
			if deleted[id.Name] {
				t.Errorf("wire/%s: %s is back; a frame's layout is its walk, written once for both directions", at(id), id.Name)
			}
		}
	})

	banned := map[string]bool{"encoding/hex": true, "strconv": true, "bufio": true}
	usesWire := false
	scanDir(t, "../../internal/trace", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			usesWire = usesWire || path == "switchmon/internal/wire"
			if banned[path] {
				t.Errorf("trace/%s imports %s; a trace file is wire frames, not a grammar of its own", at(imp), path)
			}
		}
	})
	if !usesWire {
		t.Error("internal/trace does not import switchmon/internal/wire; a trace file is the link's own bytes")
	}
}

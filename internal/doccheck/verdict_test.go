package doccheck

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// TestVerdictRenderedOnce keeps a verdict cheap to report. internal/core
// renders an event's summary in one place, Monitor.trigger, which every
// report and provenance record of that event shares — nothing else in the
// package calls Summary or AppendSummary, except the Event methods that
// are the rendering. And the functions a report is rendered by — the
// violation path, the event and packet summaries down to the addresses,
// flags and values in them, the report's String and trace record — append
// with strconv and never call fmt.
func TestVerdictRenderedOnce(t *testing.T) {
	fmtFree := map[string]map[string]bool{
		"../../internal/core": {
			"Monitor.advance": false, "Monitor.advanceByTimeout": false, "Monitor.trigger": false,
			"Monitor.violate": false, "Event.Summary": false, "Event.appendSummary": false,
			"Violation.String": false, "Violation.TraceRecord": false,
		},
		"../../internal/packet": {
			"Packet.Summary": false, "Packet.AppendSummary": false, "appendPorts": false,
			"MAC.String": false, "MAC.appendTo": false, "IPv4.String": false, "IPv4.appendTo": false,
			"TCPFlags.String": false, "TCPFlags.appendTo": false, "Value.String": false,
		},
	}
	renderers := map[string]bool{"Monitor.trigger": true, "Event.Summary": true, "Event.appendSummary": true}
	for dir, pinned := range fmtFree {
		scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					fn = recvName(fd.Recv.List[0].Type) + "." + fn
				}
				_, noFmt := pinned[fn]
				if noFmt {
					pinned[fn] = true
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && noFmt {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
							t.Errorf("%s: %s calls fmt.%s; render a verdict with append and strconv", at(sel), fn, sel.Sel.Name)
						}
					}
					if call, ok := n.(*ast.CallExpr); ok && strings.HasSuffix(dir, "core") && !renderers[fn] {
						if name := selName(call.Fun); name == "Summary" || name == "AppendSummary" || name == "appendSummary" {
							t.Errorf("%s: %s renders an event summary; take the event's one rendering from Monitor.trigger", at(call), fn)
						}
					}
					return true
				})
			}
		})
		var missing []string
		for fn, seen := range pinned {
			if !seen {
				missing = append(missing, fn)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s declares none of %v; update this test with the code", dir, missing)
		}
	}
}

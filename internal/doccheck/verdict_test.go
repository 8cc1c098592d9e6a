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
// with strconv and never call fmt. A report is recorded, not rendered:
// the violation path and its trace record build no map and call no
// String, and a report's bindings become strings in one function,
// obs.RenderBindings, which every reader that shows them calls — the
// ring's read stamp, the daemon's -json printer and Violation.String.
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
	unrendered := map[string]bool{"core:Monitor.violate": true, "core:Violation.TraceRecord": true}
	const renderer = "obs:RenderBindings"
	readers := map[string]bool{renderer: false, "obs:NewRing": false, "core:Violation.String": false, "daemon:Flags.EngineConfig": false}
	for _, pkg := range []string{"core", "obs", "daemon"} {
		scanDir(t, "../../internal/"+pkg, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := pkg + ":" + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					fn = pkg + ":" + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				if fn == renderer {
					readers[fn] = true
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.MapType:
						if unrendered[fn] {
							t.Errorf("%s: %s builds a map; a report carries its bindings as the name-ordered slice", at(n), fn)
						}
					case *ast.CallExpr:
						name := selName(n.Fun)
						if id, ok := n.Fun.(*ast.Ident); ok {
							name = id.Name
						}
						switch {
						case name == "RenderBindings":
							if _, reader := readers[fn]; reader {
								readers[fn] = true
							}
						case name == "String" && unrendered[fn]:
							t.Errorf("%s: %s calls String; recording a report renders nothing but its trigger", at(n), fn)
						case name == "String" && fn != renderer && rendersBinding(n.Fun):
							t.Errorf("%s: %s renders a binding; call obs.RenderBindings", at(n), fn)
						}
					}
					return true
				})
			}
		})
	}
	for fn, seen := range readers {
		if !seen {
			t.Errorf("%s neither is nor calls the one bindings renderer %s", fn, renderer)
		}
	}
}

// rendersBinding reports whether fun is the String method of a binding's
// value: b.Value.String, or String on an index into a Bindings map or
// slice.
func rendersBinding(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if ix, ok := sel.X.(*ast.IndexExpr); ok {
		return selName(ix.X) == "Bindings"
	}
	return selName(sel.X) == "Value"
}

package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDecoderWrittenOnce keeps the packet and frame codecs single. In
// internal/packet each header's layout is one layout method, run both
// ways, so no file declares the deleted per-direction encoders
// (encodeTo, appendHeader, fillChecksum, patchIPv4) or a parse/decode
// function for a layer that has a layout (parseIPv4, decodeDNS, ...);
// FTP, a text codec with no layout, keeps its line parser. The layout
// methods are reached only through the two drivers, Arena.Decode and
// Packet.AppendEncode: every function that leads to a layout call
// without passing through a driver is itself reached from a driver, so
// a second descent cannot reappear without this test naming it. In
// internal/dataplane a rewrite is packet.SetField, so applySetField,
// its old switch, is not declared. In internal/wire, Reader.Next is the
// one framing loop and every decoded batch is arena-backed: no file,
// tests included, declares the identifiers of the deleted second paths
// — a plain NewReader, DecodeFrame, the any-typed EncodeFrame, or a
// pooled switch between owned and borrowed batches.
func TestDecoderWrittenOnce(t *testing.T) {
	calls := map[string][]string{}  // function -> names it calls
	byName := map[string][]string{} // name -> functions declared with it
	layoutTypes := map[string]bool{}
	scanDir(t, "../../internal/packet", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = recvName(fd.Recv.List[0].Type) + "." + key
				if fd.Name.Name == "layout" {
					layoutTypes[recvName(fd.Recv.List[0].Type)] = true
				}
			}
			byName[fd.Name.Name] = append(byName[fd.Name.Name], key)
			switch name := fd.Name.Name; name {
			case "encodeTo", "appendHeader", "fillChecksum", "patchIPv4":
				t.Errorf("%s: %s is declared; each header's layout is one layout method run both ways", at(fd.Name), key)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch fn := call.Fun.(type) {
					case *ast.Ident:
						calls[key] = append(calls[key], fn.Name)
					case *ast.SelectorExpr:
						calls[key] = append(calls[key], fn.Sel.Name)
					}
				}
				return true
			})
		}
	})
	for _, typ := range []string{"Ethernet", "ARP", "IPv4Header", "ICMPv4", "TCP", "UDP", "DHCPv4", "DNS"} {
		if !layoutTypes[typ] {
			t.Errorf("%s declares no layout method; the scan is out of date", typ)
		}
	}
	for name, keys := range byName {
		for _, prefix := range []string{"parse", "decode"} {
			layer, ok := strings.CutPrefix(name, prefix)
			for typ := range layoutTypes {
				if ok && layer != "" && strings.HasPrefix(typ, layer) {
					t.Errorf("%v: %s parses %s, which has a layout; the layout is its one decoder", keys, name, typ)
				}
			}
		}
	}

	// reached: every function a driver reaches. leads: every function
	// that calls a layout method, or one that leads, short of a driver.
	drivers := map[string]bool{"Arena.Decode": true, "Packet.AppendEncode": true}
	reached := map[string]bool{}
	var reach func(key string)
	reach = func(key string) {
		if reached[key] {
			return
		}
		reached[key] = true
		for _, name := range calls[key] {
			for _, callee := range byName[name] {
				reach(callee)
			}
		}
	}
	for d := range drivers {
		if len(calls[d]) == 0 {
			t.Errorf("driver %s is not declared; the scan is out of date", d)
		}
		reach(d)
	}
	leads := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for key, names := range calls {
			if leads[key] || drivers[key] {
				continue
			}
			for _, name := range names {
				if name == "layout" || containsLead(byName[name], leads) {
					leads[key], changed = true, true
					break
				}
			}
		}
	}
	if len(leads) == 0 {
		t.Error("no function but a driver calls a layout method; the scan is out of date")
	}
	for key := range leads {
		if !reached[key] {
			t.Errorf("%s leads to a layout method but no driver reaches it; the drivers are Arena.Decode and Packet.AppendEncode", key)
		}
	}

	scanDir(t, "../../internal/dataplane", func(name string) bool { return strings.HasSuffix(name, ".go") },
		func(at func(ast.Node) string, file *ast.File) {
			for _, id := range declaredNames(file) {
				if id.Name == "applySetField" {
					t.Errorf("%s applySetField is declared; a rewrite is packet.SetField", at(id))
				}
			}
		})

	deleted := map[string]bool{"NewReader": true, "DecodeFrame": true, "EncodeFrame": true, "pooled": true}
	var found []string
	scanDir(t, "../../internal/wire", func(name string) bool { return strings.HasSuffix(name, ".go") },
		func(at func(ast.Node) string, file *ast.File) {
			for _, id := range declaredNames(file) {
				if deleted[id.Name] {
					found = append(found, at(id)+" "+id.Name)
				}
			}
		})
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is declared; wire has one reader constructor, one framing loop and arena-backed batches only", f)
	}
}

// containsLead reports whether any of keys is in leads.
func containsLead(keys []string, leads map[string]bool) bool {
	for _, k := range keys {
		if leads[k] {
			return true
		}
	}
	return false
}

// scanDir parses every file in dir that keep accepts and hands it to
// visit with a position formatter.
func scanDir(t *testing.T, dir string, keep func(string) bool, visit func(at func(ast.Node) string, file *ast.File)) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, ent := range entries {
		if ent.IsDir() || !keep(ent.Name()) {
			continue
		}
		files++
		file, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := ent.Name()
		visit(func(n ast.Node) string { return name + ":" + strconv.Itoa(fset.Position(n.Pos()).Line) }, file)
	}
	if files == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
}

// declaredNames lists every identifier file declares: functions and
// methods, types, package and local variables and constants, struct
// fields, parameters and results.
func declaredNames(file *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.TypeSpec:
			ids = append(ids, d.Name)
		case *ast.ValueSpec:
			ids = append(ids, d.Names...)
		case *ast.Field:
			ids = append(ids, d.Names...)
		case *ast.AssignStmt:
			if d.Tok == token.DEFINE {
				for _, lhs := range d.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						ids = append(ids, id)
					}
				}
			}
		case *ast.RangeStmt:
			if d.Tok == token.DEFINE {
				for _, x := range []ast.Expr{d.Key, d.Value} {
					if id, ok := x.(*ast.Ident); ok {
						ids = append(ids, id)
					}
				}
			}
		}
		return true
	})
	return ids
}

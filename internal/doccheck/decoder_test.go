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

// TestDecoderWrittenOnce keeps the packet and frame decoders single. In
// internal/packet, Arena.Decode is the one header descent: the
// per-layer parse functions are reached from Arena methods only, so a
// second descent (a heap decoder beside the arena, as the package once
// had) cannot reappear without this test naming it. In internal/wire,
// Reader.Next is the one framing loop and every decoded batch is
// arena-backed: no file, tests included, declares the identifiers of the
// deleted second paths — a plain NewReader, DecodeFrame, the any-typed
// EncodeFrame, or a pooled switch between owned and borrowed batches.
func TestDecoderWrittenOnce(t *testing.T) {
	parsers := map[string]bool{
		"parseEthernet": true, "parseIPv4": true, "parseTCP": true,
		"parseUDP": true, "parseICMPv4": true, "parseARP": true,
	}
	reached := map[string]bool{}
	scanDir(t, "../../internal/packet", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inArena := fd.Recv != nil && len(fd.Recv.List) == 1 && recvName(fd.Recv.List[0].Type) == "Arena"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !parsers[id.Name] {
					return true
				}
				reached[id.Name] = true
				if !inArena {
					t.Errorf("%s: %s is used by %s; the one descent is Arena.Decode's", at(id), id.Name, fd.Name.Name)
				}
				return true
			})
		}
	})
	for name := range parsers {
		if !reached[name] {
			t.Errorf("%s is not reached from any function in internal/packet; the scan is out of date", name)
		}
	}

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

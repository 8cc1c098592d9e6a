package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsWrittenOnce keeps every performance experiment measured
// by one copy. The in-process experiments are `go test -bench`
// benchmarks in the repository root's bench_test.go (BenchmarkE<n>...);
// cmd/benchsweep keeps the sweeps that need a fabric, a fault injector,
// live lifecycle churn or the self-monitoring tier. So no sweep key in
// benchsweep's experiment table names an experiment bench_test.go
// implements — except e14, whose halves measure different things: trace
// overhead in-process, detection latency over the fabric.
//
// E4's raw mechanisms are the dataplane's own flow table and register
// file, timed by internal/dataplane's BenchmarkStateMechanism. No type in
// any package declares a transitions method, the one operation of the
// state-cost models those atoms replaced, so a model of them cannot come
// back under any name. (The check keys on the method, not the name:
// internal/obs/slo's ruleState is an SLO rule's evaluation state, not a
// state-cost model.)
func TestExperimentsWrittenOnce(t *testing.T) {
	benchExp := regexp.MustCompile(`^BenchmarkE(\d+)`)
	benched := map[string]bool{}
	scanDir(t, "../..", func(name string) bool { return name == "bench_test.go" },
		func(_ func(ast.Node) string, file *ast.File) {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if m := benchExp.FindStringSubmatch(fd.Name.Name); m != nil {
						benched["e"+m[1]] = true
					}
				}
			}
		})
	if len(benched) == 0 {
		t.Fatal("bench_test.go declares no BenchmarkE<n>; the scan is out of date")
	}

	sweepKey := regexp.MustCompile(`^e\d+$`)
	sweeps := 0
	scanDir(t, "../../cmd/benchsweep", isSourceFile, func(at func(ast.Node) string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if _, isMap := lit.Type.(*ast.MapType); !isMap {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.BasicLit)
				if !ok || key.Kind != token.STRING {
					continue
				}
				exp, _ := strconv.Unquote(key.Value)
				if !sweepKey.MatchString(exp) {
					continue
				}
				sweeps++
				if benched[exp] && exp != "e14" {
					t.Errorf("%s: benchsweep sweep %q duplicates bench_test.go's Benchmark%s; one copy per experiment",
						at(key), exp, strings.ToUpper(exp))
				}
			}
			return true
		})
	})
	if sweeps == 0 {
		t.Fatal("cmd/benchsweep has no experiment table; the scan is out of date")
	}

	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "transitions" {
				t.Errorf("%s: %s.transitions models a state atom; pay it on internal/dataplane's flow table or register file (BenchmarkStateMechanism there times them)",
					fset.Position(fd.Pos()), recvName(fd.Recv.List[0].Type))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

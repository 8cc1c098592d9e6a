package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagMethods maps the flag package's registration methods to the index
// of their name argument and their arity.
var flagMethods = map[string][2]int{
	"Bool": {0, 3}, "Int": {0, 3}, "Int64": {0, 3}, "Uint": {0, 3}, "Uint64": {0, 3},
	"String": {0, 3}, "Float64": {0, 3}, "Duration": {0, 3}, "Func": {0, 3}, "BoolFunc": {0, 3},
	"BoolVar": {1, 4}, "IntVar": {1, 4}, "Int64Var": {1, 4}, "UintVar": {1, 4}, "Uint64Var": {1, 4},
	"StringVar": {1, 4}, "Float64Var": {1, 4}, "DurationVar": {1, 4}, "TextVar": {1, 4},
	"Var": {1, 3},
}

// flagRegistrations parses every non-test Go file under the given
// directories (recursively) and returns, per flag name, the file:line of
// each call that registers it.
func flagRegistrations(t *testing.T, dirs ...string) map[string][]string {
	t.Helper()
	regs := map[string][]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !isSourceFile(d.Name()) {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				shape, ok := flagMethods[sel.Sel.Name]
				if !ok || len(call.Args) != shape[1] {
					return true
				}
				lit, ok := call.Args[shape[0]].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				pos := fset.Position(call.Pos())
				regs[name] = append(regs[name], pos.Filename+":"+strconv.Itoa(pos.Line))
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return regs
}

// TestEachFlagRegisteredOnce is the guard behind internal/daemon: a flag
// two daemons share is declared on one line, there, not once per main.
func TestEachFlagRegisteredOnce(t *testing.T) {
	regs := flagRegistrations(t, "../../cmd", "../../internal")
	if len(regs) < 30 {
		t.Fatalf("scan found only %d flags; the scanner has lost the registrations", len(regs))
	}
	for name, sites := range regs {
		if name == "json" {
			// cmd/benchsweep's -json names a directory for BENCH rows: a
			// different tool's different flag, not a daemon's.
			sites = withoutDir(sites, "benchsweep")
		}
		if len(sites) > 1 {
			t.Errorf("flag -%s is registered %d times: %s", name, len(sites), strings.Join(sites, ", "))
		}
	}
}

func withoutDir(sites []string, dir string) []string {
	var out []string
	for _, s := range sites {
		if !strings.Contains(s, string(filepath.Separator)+dir+string(filepath.Separator)) {
			out = append(out, s)
		}
	}
	return out
}

// TestObservabilityFlagsTable keeps docs/OBSERVABILITY.md's Flags table
// in step with the code: every flag internal/daemon or one of the three
// daemons registers has a row, and every row names a flag that exists.
func TestObservabilityFlagsTable(t *testing.T) {
	regs := flagRegistrations(t, "../../internal/daemon",
		"../../cmd/switchmon", "../../cmd/collector", "../../cmd/fleetagg")
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Flags\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no '## Flags' section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|").FindAllStringSubmatch(section, -1) {
		if documented[m[1]] {
			t.Errorf("Flags table has two rows for -%s", m[1])
		}
		documented[m[1]] = true
	}
	var missing, stale []string
	for name := range regs {
		if !documented[name] {
			missing = append(missing, "-"+name)
		}
	}
	for name := range documented {
		if regs[name] == nil {
			stale = append(stale, "-"+name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags with no row in docs/OBSERVABILITY.md's Flags table: %s", strings.Join(missing, " "))
	}
	if len(stale) > 0 {
		t.Errorf("Flags table rows for flags no daemon registers: %s", strings.Join(stale, " "))
	}
}

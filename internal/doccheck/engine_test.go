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

// TestEngineWrittenOnce is to internal/core what TestEachFlagRegisteredOnce
// is to the daemons: the step loop, supervision, the property lifecycle
// and the tracker's slot retirement each exist in one place, shared by
// Monitor and ShardedMonitor, and this scan fails when a second copy
// appears — a second function that recovers panics on behalf of a shard, a
// second ledger install record, a second compile per install, a field that
// gives ShardedMonitor a property table of its own, or one of the
// identifiers the merge deleted. The same goes for the execution model:
// the shard count selects it (one shard runs to completion on its caller's
// goroutine, two or more are router plus queues), so one function executes
// a shardCtl, called from the worker and from the one-shard post and
// nowhere else; the package has one go statement; Monitor.apply gains no
// call site; and core.Config's fields are pinned, so no option can appear
// to select a path without this test saying so. And for the wall clock:
// one function reads it, Monitor.applyTimed, which apply calls only when
// its gap countdown reaches zero — no event pays for a clock read unless
// the sampler picked it. And for overflow: a full shard queue blocks the
// router, so ShardedMonitor.flushShard holds no select (its send cannot
// become conditional), ShardedMonitor has no shed method, and no non-test
// Go under internal/ declares ShedDropOldest or UnsoundShed again.
func TestEngineWrittenOnce(t *testing.T) {
	const dir = "../../internal/core"
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// calls maps a called name ("compile", ".RecordInstall") to its call
	// sites; recovers lists the functions containing a recover() call.
	calls := map[string][]string{}
	var recovers []string
	// callers maps a called name to the functions calling it; applyCalls
	// does so for ".apply" by argument count — one is a shardCtl's fence,
	// three Monitor.apply; configFields is core.Config's exported field
	// list, in declaration order.
	callers := map[string][]string{}
	applyCalls := map[int][]string{}
	var configFields []string
	goStmts := 0
	// clockReads lists the functions calling time.Now or time.Since;
	// countdownTimed counts the .applyTimed calls inside an if statement
	// that decrements and tests timeIn.
	var clockReads []string
	countdownTimed := 0
	deleted := map[string]bool{
		"applyRouted": true, "stepPropsProtected": true, "runShardUntil": true,
		"fenceApply": true, "installLocal": true, "removeLocal": true,
	}
	files := 0
	for _, ent := range entries {
		if ent.IsDir() || !isSourceFile(ent.Name()) {
			continue
		}
		files++
		file, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := func(n ast.Node) string {
			pos := fset.Position(n.Pos())
			return ent.Name() + ":" + strconv.Itoa(pos.Line)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					fn = recvName(d.Recv.List[0].Type) + "." + fn
				}
				recovered := false
				if fn == "ShardedMonitor.shed" {
					t.Errorf("%s: %s is back; a full shard queue blocks, nothing sheds it", at(d), fn)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						goStmts++
					}
					if _, ok := n.(*ast.SelectStmt); ok && fn == "ShardedMonitor.flushShard" {
						t.Errorf("%s: %s selects; its send to the shard queue must block, not fall through to a shed", at(n), fn)
					}
					if ifs, ok := n.(*ast.IfStmt); ok && isCountdown(ifs) {
						ast.Inspect(ifs.Body, func(n ast.Node) bool {
							if call, ok := n.(*ast.CallExpr); ok && selName(call.Fun) == "applyTimed" {
								countdownTimed++
							}
							return true
						})
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch f := call.Fun.(type) {
					case *ast.Ident:
						if f.Name == "recover" {
							recovered = true
						}
						calls[f.Name] = append(calls[f.Name], at(call))
					case *ast.SelectorExpr:
						if pkg, ok := f.X.(*ast.Ident); ok && pkg.Name == "time" && (f.Sel.Name == "Now" || f.Sel.Name == "Since") {
							clockReads = append(clockReads, fn)
						}
						calls["."+f.Sel.Name] = append(calls["."+f.Sel.Name], at(call))
						callers["."+f.Sel.Name] = append(callers["."+f.Sel.Name], fn)
						if f.Sel.Name == "apply" {
							applyCalls[len(call.Args)] = append(applyCalls[len(call.Args)], fn)
						}
					}
					return true
				})
				if recovered {
					recovers = append(recovers, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if ok && ts.Name.Name == "Config" {
						for _, f := range ts.Type.(*ast.StructType).Fields.List {
							for _, name := range f.Names {
								if name.IsExported() {
									configFields = append(configFields, name.Name)
								}
							}
						}
					}
					if !ok || ts.Name.Name != "ShardedMonitor" {
						continue
					}
					for _, f := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range f.Names {
							switch name.Name {
							case "names", "epoch", "ledger":
								t.Errorf("%s: ShardedMonitor declares its own %q; the property table, epoch and ledger are propSet's", at(name), name.Name)
							}
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && deleted[id.Name] {
				t.Errorf("%s: %s is back; it was merged into the one engine core", at(id), id.Name)
			}
			return true
		})
	}
	if files < 10 {
		t.Fatalf("scan found only %d source files under %s", files, dir)
	}

	sort.Strings(recovers)
	if len(recovers) != 2 {
		t.Errorf("recover() appears in %d functions, want 2 (the step loop and the timer entry): %v", len(recovers), recovers)
	}
	for _, fn := range recovers {
		if !strings.HasPrefix(fn, "Monitor.") {
			t.Errorf("%s recovers a panic; supervision is the Monitor's", fn)
		}
	}
	for _, name := range []string{".RecordInstall", ".RecordRemove", ".Uninstall", ".InstallTenant"} {
		if sites := calls[name]; len(sites) != 1 {
			t.Errorf("%s has %d call sites, want 1 (the propSet's): %v", name, len(sites), sites)
		}
	}
	// One compile per install, engine-wide; partition.go's fleet-level
	// analysis compiles on its own account.
	var compiles []string
	for _, site := range calls["compile"] {
		if !strings.HasPrefix(site, "partition.go:") {
			compiles = append(compiles, site)
		}
	}
	if len(compiles) != 1 {
		t.Errorf("compile( has %d call sites outside partition.go, want 1 (the install path): %v", len(compiles), compiles)
	}

	// One executor of a shardCtl — it adopts quarantines, runs the fence —
	// reached from the worker (N >= 2) and the one-shard post only.
	const executor = "ShardedMonitor.exec"
	for what, fns := range map[string][]string{"adoptQuarantines is called": callers[".adoptQuarantines"], "a shardCtl's fence is run": applyCalls[1]} {
		if len(fns) != 1 || fns[0] != executor {
			t.Errorf("%s in %v, want only in %s", what, fns, executor)
		}
	}
	got := append([]string(nil), callers[".exec"]...)
	sort.Strings(got)
	if want := []string{"ShardedMonitor.post", "ShardedMonitor.worker"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s is called from %v, want %v", executor, got, want)
	}
	if goStmts != 1 {
		t.Errorf("internal/core has %d go statements, want 1 (start, spawning the N >= 2 workers)", goStmts)
	}
	// HandleEvent, Flush and the sharded engine's one per-event step.
	if sites := applyCalls[3]; len(sites) > 3 {
		t.Errorf("Monitor.apply is called from %v, want at most 3 sites", sites)
	}
	// One start and one stop, both in the function the countdown guards.
	const timed = "Monitor.applyTimed"
	if got := strings.Join(clockReads, " "); got != timed+" "+timed {
		t.Errorf("time.Now/time.Since are called from [%s], want one of each in %s", got, timed)
	}
	if fns := callers[".applyTimed"]; len(fns) != 1 || fns[0] != "Monitor.apply" || countdownTimed != 1 {
		t.Errorf("%s is called from %v, %d of those calls behind apply's timeIn countdown; want one call, from Monitor.apply, behind it",
			timed, fns, countdownTimed)
	}
	wantFields := "Mode Provenance OnViolation DisableIndex SplitFlushLimit MaxInstances Metrics MetricsLabels " +
		"Violations StateTopK StateSample StateWatermark DisableStateAccounting Tracer TenantQuotas"
	if got := strings.Join(configFields, " "); got != wantFields {
		t.Errorf("core.Config's fields changed — a new option needs two callers that want different values, not a path to select:\n got %s\nwant %s", got, wantFields)
	}

	shedNames := map[string]bool{"ShedDropOldest": true, "UnsoundShed": true}
	for _, dir := range libraryPackages(t, "../..") {
		scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
			for _, id := range declaredNames(file) {
				if shedNames[id.Name] {
					t.Errorf("%s/%s: %s is declared; the shard queue blocks and sheds nothing", dir, at(id), id.Name)
				}
			}
		})
	}
}

// isCountdown reports whether ifs is apply's sampling gate: an if whose
// init decrements a timeIn field and whose condition compares it to zero.
func isCountdown(ifs *ast.IfStmt) bool {
	dec, ok := ifs.Init.(*ast.IncDecStmt)
	if !ok || dec.Tok != token.DEC || selName(dec.X) != "timeIn" {
		return false
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL || selName(cond.X) != "timeIn" {
		return false
	}
	zero, ok := cond.Y.(*ast.BasicLit)
	return ok && zero.Value == "0"
}

// selName is the selected name of a selector expression, "" for any other.
func selName(expr ast.Expr) string {
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// recvName names a method receiver's type, pointer or not.
func recvName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

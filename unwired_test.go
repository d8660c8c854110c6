package repro

// Guard: every non-test top-level function and method has a non-test
// caller. Code that only tests reach is either a reference oracle (it lives
// in a _test.go file beside the test that compares against it) or dead.
// The scan uses only go/parser and go/ast: a declaration fails when no
// non-test file of the module tree (cmd/, examples/ and the nested perfbench
// module included) names it outside its own declaration.
//
// Matching is by name, so it errs toward "referenced":
//   - a top-level function is referenced by a bare identifier in a non-test
//     file of its own directory, or by a pkg.Name selector in any non-test
//     file that imports its directory;
//   - a method is referenced by any .Name selector in any non-test file.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unwiredAllow lists the declarations the guard accepts without a non-test
// reference, keyed as "<dir>.<Func>" or "<dir>.<Type>.<Method>" with <dir>
// relative to the module root, each with the reason.
var unwiredAllow = map[string]string{
	// Interface methods the standard library calls.
	"internal/milp.nodeHeap.Less":         "heap.Interface (container/heap)",
	"internal/milp.nodeHeap.Swap":         "heap.Interface (container/heap)",
	"internal/milp.nodeHeap.Push":         "heap.Interface (container/heap)",
	"internal/milp.nodeHeap.Pop":          "heap.Interface (container/heap)",
	"internal/core.ComponentError.Unwrap": "errors.Is/As unwrap through it",
	// Cross-package test references: tests in other packages use these, so
	// they cannot move into a _test.go file.
	"internal/dote.Model.OpaqueRoutingPipelineDense": "TestCertifiedRowsMatchFullRowsGeant (dote) compares the certified sparse path against this dense-probe pipeline, and TestVJPCtxMatchesVJP (core) checks it against the scalar FD oracle",
	"internal/core.AttackTarget.RatioCached":         "BenchmarkEvalCacheMemo (root, make bench-json) times memo hits and misses through it",
	"internal/te.UniformSplits":                      "fixture splits for TestRunBasics (sim), the search package's uniformTarget, TestUtilizationValueMatchesLinkLoads (dote) and BenchmarkRouting (root)",
}

// scanUnwired parses the non-test .go files under root (skipping testdata
// and hidden directories) and returns them with the declarations no
// non-test file references, sorted. modPath is the root module's import
// path; a nested module lives under it (modPath/sub in directory sub).
func scanUnwired(t *testing.T, root, modPath string) (parsed, unreferenced []string) {
	t.Helper()
	type decl struct {
		key, dir, name string
		method         bool
	}
	type file struct {
		dir string
		f   *ast.File
	}
	var (
		decls []decl
		files []file
		fset  = token.NewFileSet()
	)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		parsed = append(parsed, filepath.ToSlash(rel))
		dir := filepath.ToSlash(filepath.Dir(rel))
		files = append(files, file{dir, f})
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = dir + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, dir, fn.Name.Name, fn.Recv != nil})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}

	funcRefs := map[string]bool{}   // "<dir>.<Name>"
	methodRefs := map[string]bool{} // "<Name>"
	for _, fl := range files {
		// Local import name -> directory; "" for packages outside the tree,
		// whose selectors reference nothing the scan declares.
		imports := map[string]string{}
		for _, im := range fl.f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			dir := ""
			switch {
			case p == modPath:
				dir = "."
			case strings.HasPrefix(p, modPath+"/"):
				dir = strings.TrimPrefix(p, modPath+"/")
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		refs := func(n ast.Node, self string) {
			walkRefs(n, fl.dir, self, imports, funcRefs, methodRefs)
		}
		for _, d := range fl.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				refs(d, "")
				continue
			}
			// Skip the declared name itself; a recursive call is no caller.
			self := fn.Name.Name
			if fn.Recv != nil {
				self = "." + self
				refs(fn.Recv, self)
			}
			refs(fn.Type, self)
			if fn.Body != nil {
				refs(fn.Body, self)
			}
		}
	}

	for _, d := range decls {
		if d.method && !methodRefs[d.name] || !d.method && !funcRefs[d.dir+"."+d.name] {
			unreferenced = append(unreferenced, d.key)
		}
	}
	sort.Strings(unreferenced)
	return parsed, unreferenced
}

// walkRefs records the function and method names n references. self is
// the enclosing declaration's name ("Name" for a function, ".Name" for a
// method), which does not count.
func walkRefs(n ast.Node, dir, self string, imports map[string]string, funcRefs, methodRefs map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pdir, ok := imports[x.Name]; ok {
					if pdir != "" {
						funcRefs[pdir+"."+n.Sel.Name] = true
					}
					return false
				}
			}
			if "."+n.Sel.Name != self {
				methodRefs[n.Sel.Name] = true
			}
			walkRefs(n.X, dir, self, imports, funcRefs, methodRefs)
			return false
		case *ast.Ident:
			if n.Name != self {
				funcRefs[dir+"."+n.Name] = true
			}
		}
		return true
	})
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// unwiredFailures splits a scan against an allowlist: declarations that
// are neither referenced nor allowlisted, and allowlist entries that no
// longer name an unreferenced declaration.
func unwiredFailures(unreferenced []string, allow map[string]string) (flagged, stale []string) {
	seen := map[string]bool{}
	for _, k := range unreferenced {
		seen[k] = true
		if _, ok := allow[k]; !ok {
			flagged = append(flagged, k)
		}
	}
	for k := range allow {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return flagged, stale
}

// TestEveryFunctionHasANonTestCaller is the guard on the real tree.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	parsed, unreferenced := scanUnwired(t, ".", "repro")
	for _, dir := range []string{"cmd/", "examples/", "perfbench/"} {
		found := false
		for _, f := range parsed {
			found = found || strings.HasPrefix(f, dir)
		}
		if !found {
			t.Errorf("scan parsed no non-test file under %s; the walk is broken", dir)
		}
	}
	flagged, stale := unwiredFailures(unreferenced, unwiredAllow)
	for _, k := range flagged {
		t.Errorf("%s: no non-test caller (delete it, move it beside its test, or allowlist it with a reason)", k)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s is stale: it is gone or has a non-test caller", k)
	}
}

// TestUnwiredScanFixture runs the checker on a small module: of an
// unreferenced (self-recursive) function, a test-only function, an
// allowlisted method and a function only a nested module calls, exactly the
// first two are flagged.
func TestUnwiredScanFixture(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fix\n\ngo 1.22\n")
	write("lib/lib.go", `package lib

type T struct{}

func (T) Len() int { return 0 }

func Unused() int { return Unused() }

func OnlyTests() int { return 1 }

func ForBench() int { return 2 }

func Used() int { return helper() }

func helper() int { return 3 }
`)
	write("lib/lib_test.go", `package lib

import "testing"

func TestX(t *testing.T) { _ = OnlyTests() }
`)
	write("main.go", `package main

import "fix/lib"

func main() { _ = lib.Used() }
`)
	write("bench/go.mod", "module fix/bench\n\ngo 1.22\n")
	write("bench/main.go", `package main

import l "fix/lib"

func main() { _ = l.ForBench() }
`)
	_, unreferenced := scanUnwired(t, root, "fix")
	flagged, stale := unwiredFailures(unreferenced, map[string]string{"lib.T.Len": "fixture interface method"})
	if want := "lib.OnlyTests,lib.Unused"; strings.Join(flagged, ",") != want || len(stale) != 0 {
		t.Fatalf("flagged %v (stale %v), want %s", flagged, stale, want)
	}
}

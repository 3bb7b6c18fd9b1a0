// Command deadexports lists the exported functions and methods that nothing
// calls: each one declared outside bench/ and testdata/ whose name appears
// in no non-test code (bench/ included) and in no test of another package.
// It prints one "file:line: Name" line each and exits 1 if it printed any.
//
// Usage, from the repository root:
//
//	go run ./scripts/deadexports
//
// The search is by name over the parsed identifiers, so comments never count
// as a use. It can miss a dead export whose name some other declaration also
// uses, but it never lists one that any code names; only a method called
// solely through an interface declared outside the module could be listed.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

type export struct {
	pos  token.Position
	name string
	dir  string
}

func main() {
	fset := token.NewFileSet()
	var exports []export
	used := map[string]bool{}           // named by non-test code
	testedFrom := map[string][]string{} // name -> dirs of the tests naming it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // a fixture that is meant not to parse names nothing
		}
		dir := filepath.Dir(path)
		test := strings.HasSuffix(path, "_test.go") ||
			slices.Contains(strings.Split(dir, string(filepath.Separator)), "testdata")
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name] = true
			if test || !fn.Name.IsExported() || strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
				continue
			}
			exports = append(exports, export{fset.Position(fn.Name.Pos()), fn.Name.Name, dir})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				if test {
					testedFrom[id.Name] = append(testedFrom[id.Name], dir)
				} else {
					used[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	dead := 0
	for _, e := range exports {
		if used[e.name] || slices.ContainsFunc(testedFrom[e.name], func(dir string) bool { return dir != e.dir }) {
			continue
		}
		fmt.Printf("%s:%d: %s\n", e.pos.Filename, e.pos.Line, e.name)
		dead++
	}
	if dead > 0 {
		os.Exit(1)
	}
}

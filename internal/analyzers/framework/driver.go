package framework

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("sendforget/internal/runtime"),
	// or the fixture directory's base name for testdata packages.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ErrExportData marks a package-load failure caused by missing or unreadable
// compiled export data — typically a toolchain/cache mismatch, not a bug in
// the analyzed code. Drivers should test for it with errors.Is and print an
// actionable message (run `go build ./...` to repopulate the build cache)
// instead of surfacing the raw type-checker error.
var ErrExportData = errors.New("export data load failed")

// listedPackage is the slice of `go list -json` output the driver uses.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Loader type-checks packages without golang.org/x/tools: package metadata
// and compiled export data come from `go list -deps -export -json`, and the
// standard gc importer consumes the export files. This is the same
// information a vettool receives from the go command, obtained directly.
//
// Test files are not loaded (GoFiles excludes them): the enforced
// invariants govern simulation and runtime code; tests may use wall-clock
// timeouts and ad-hoc randomness freely.
type Loader struct {
	// ModuleDir is the module root every `go list` invocation runs from.
	ModuleDir string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader builds a loader rooted at moduleDir. An empty moduleDir resolves
// the enclosing module of the current working directory via `go env GOMOD`.
func NewLoader(moduleDir string) (*Loader, error) {
	if moduleDir == "" {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			return nil, fmt.Errorf("framework: resolving module root: %w", err)
		}
		gomod := strings.TrimSpace(string(out))
		if gomod == "" || gomod == os.DevNull {
			return nil, fmt.Errorf("framework: not inside a module")
		}
		moduleDir = filepath.Dir(gomod)
	}
	l := &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok || exp == "" {
			return nil, fmt.Errorf("framework: no export data for %q: %w", path, ErrExportData)
		}
		return os.Open(exp)
	})
	return l, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load lists, parses, and type-checks the packages matching the patterns
// (e.g. "./..."), returning them sorted by import path. Dependencies are
// loaded as export data only.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || lp.Name == "" {
			continue
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks the single package rooted at dir without
// requiring it to be listable by the go command — this is how testdata
// fixture packages (which `go list ./...` deliberately skips) are loaded.
// Imports are resolved against the loader's module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("framework: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("framework: no Go files in %s", dir)
	}
	sort.Strings(files)

	// Resolve the fixture's imports to export data before type-checking.
	var imports []string
	seen := map[string]bool{}
	tmpFset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(tmpFset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("framework: %w", err)
		}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "unsafe" && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	if len(imports) > 0 {
		if _, err := l.list(append([]string{"-deps"}, imports...)...); err != nil {
			return nil, err
		}
	}
	return l.check(filepath.Base(dir), dir, files)
}

// list runs `go list -e -export -json` with the given extra arguments from
// the module root, records every package's export data file, and returns
// the listing.
func (l *Loader) list(args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json"}, args...)...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("framework: go list: %v\n%s", err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("framework: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("framework: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// check parses and type-checks one package's files.
func (l *Loader) check(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("framework: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:                 l.imp,
		DisableUnusedImportCheck: true,
		Error:                    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		max := len(typeErrs)
		if max > 5 {
			max = 5
		}
		msgs := make([]string, 0, max)
		importFailed := false
		for _, e := range typeErrs[:max] {
			msg := e.Error()
			if strings.Contains(msg, "could not import") || strings.Contains(msg, "no export data for") {
				importFailed = true
			}
			msgs = append(msgs, msg)
		}
		joined := strings.Join(msgs, "\n  ")
		if importFailed {
			// The type checker flattens importer failures into ordinary type
			// errors; resurface them under the sentinel so drivers can tell
			// a stale build cache apart from broken source.
			return nil, fmt.Errorf("framework: loading export data for %s failed (%w):\n  %s", path, ErrExportData, joined)
		}
		return nil, fmt.Errorf("framework: type errors in %s:\n  %s", path, joined)
	}
	if err != nil {
		return nil, fmt.Errorf("framework: checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

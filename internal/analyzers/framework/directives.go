package framework

import (
	"cmp"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// allowKey identifies one (file, line, analyzer) suppression grant.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// AllowDirective is one parsed //lint:allow grant. Used reports whether the
// directive suppressed at least one diagnostic (or answered an AllowedAt
// query) during this run — a directive that is never used is a stale escape
// hatch, which an sfvet run of every analyzer over ./... reports as an
// unusedallow finding.
type AllowDirective struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
	Used     bool
}

// allowSet is the program's parsed suppression directives. Both line grants
// of a directive (its own line and the one below) share a single record, so
// using either marks the directive used.
type allowSet struct {
	byKey map[allowKey]*AllowDirective
	all   []*AllowDirective
}

// newAllowSet parses every //lint:allow directive of the packages.
func newAllowSet(pkgs []*Package) *allowSet {
	s := &allowSet{byKey: make(map[allowKey]*AllowDirective)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, name := range names {
						d := &AllowDirective{
							File:     pos.Filename,
							Line:     pos.Line,
							Analyzer: name,
							Reason:   reason,
						}
						s.all = append(s.all, d)
						// A directive grants suppression on its own line and
						// on the line directly below it, so both
						// trailing-comment and preceding-comment styles work.
						s.byKey[allowKey{pos.Filename, pos.Line, name}] = d
						s.byKey[allowKey{pos.Filename, pos.Line + 1, name}] = d
					}
				}
			}
		}
	}
	return s
}

// use reports whether a directive grants analyzer the line, marking the
// directive used.
func (s *allowSet) use(file string, line int, analyzer string) bool {
	d := s.byKey[allowKey{file, line, analyzer}]
	if d != nil {
		d.Used = true
	}
	return d != nil
}

// parseAllow extracts the analyzer names and trailing free-text reason from
// one comment's text, or reports that the comment is not an allow directive.
// The expected shape is `//lint:allow name[,name...] [free-text reason]`.
func parseAllow(text string) (names []string, reason string, ok bool) {
	const prefix = "//lint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if rest == "" {
		return nil, "", false
	}
	namesField := strings.Fields(rest)[0]
	reason = strings.TrimSpace(strings.TrimPrefix(rest, namesField))
	for _, n := range strings.Split(namesField, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason, len(names) > 0
}

// AllowedAt reports whether an allow directive for the named analyzer covers
// pos, marking it used. Analyzers use this to honor suppressions at places
// other than the reported diagnostic — hotalloc consults it at every call
// edge so an allow on a call site prunes the whole subtree behind the call.
func (prog *Program) AllowedAt(pos token.Pos, analyzer string) bool {
	p := prog.fset.Position(pos)
	return prog.allows.use(p.Filename, p.Line, analyzer)
}

// UnusedAllows returns every //lint:allow directive in the program that
// suppressed nothing during the runs so far, sorted by file, line, and
// analyzer. Call it after Run: a directive unused at that point is a stale
// escape hatch — the diagnostic it once silenced is gone.
func (prog *Program) UnusedAllows() []AllowDirective {
	var out []AllowDirective
	for _, d := range prog.allows.all {
		if !d.Used {
			out = append(out, *d)
		}
	}
	slices.SortFunc(out, func(a, b AllowDirective) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return out
}

// HotpathDecls returns the function declarations in pkg marked with a
// //vet:hotpath directive comment. The directive must sit in the
// declaration's doc comment group (directly above the func keyword, no blank
// line), the same placement contract as //go:noinline:
//
//	// TickRound advances every node one round.
//	//
//	//vet:hotpath
//	func (e *ShardedCluster) TickRound() { ... }
//
// These declarations are the roots the hotalloc analyzer proves
// allocation-free together with everything they transitively call.
func HotpathDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == "//vet:hotpath" || strings.HasPrefix(c.Text, "//vet:hotpath ") {
					out = append(out, fd)
					break
				}
			}
		}
	}
	return out
}

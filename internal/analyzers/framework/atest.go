package framework

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the fixture package at dir, applies the analyzers, and
// compares the surviving diagnostics against the fixture's expectations —
// the analysistest contract. Each source line may carry a trailing comment
//
//	// want "regexp" ["regexp" ...]
//
// naming, in order, the diagnostics expected on that line. Lines without a
// want comment expect none. //lint:allow directives are honored before
// matching, so fixtures can cover the suppression mechanism itself.
func RunFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	diags, wants, err := runFixture(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q (want comment unsatisfied)", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

// FixtureDiagnostics loads and analyzes a fixture package, returning the
// surviving diagnostics without asserting on want comments. Regression
// tests use it to probe specific scenarios directly.
func FixtureDiagnostics(dir string, analyzers ...*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runFixture(dir, analyzers)
	return diags, err
}

func runFixture(dir string, analyzers []*Analyzer) ([]Diagnostic, []wantExpectation, error) {
	loader, err := NewLoader("")
	if err != nil {
		return nil, nil, err
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	diags := NewProgram([]*Package{pkg}).Run(analyzers)
	var wants []wantExpectation
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		fw, err := parseWants(filename)
		if err != nil {
			return nil, nil, err
		}
		wants = append(wants, fw...)
	}
	return diags, wants, nil
}

// wantExpectation is one expected diagnostic parsed from a want comment.
type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts want expectations from one source file.
func parseWants(filename string) ([]wantExpectation, error) {
	src, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	var wants []wantExpectation
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		patterns, err := splitQuoted(m[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: malformed want comment: %w", filepath.Base(filename), i+1, err)
		}
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w", filepath.Base(filename), i+1, p, err)
			}
			wants = append(wants, wantExpectation{file: filename, line: i + 1, re: re})
		}
	}
	return wants, nil
}

// splitQuoted parses a sequence of Go-quoted strings ("..." or `...`).
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		quote := s[0]
		end := 1
		for ; end < len(s); end++ {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
		}
		if end == len(s) {
			return nil, fmt.Errorf("unterminated pattern in %q", s)
		}
		unq, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %w", s[:end+1], err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

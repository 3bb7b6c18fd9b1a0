package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sendforget/internal/analyzers"
	"sendforget/internal/analyzers/framework"
)

// TestAnalyzerNameListIsCurrent keeps the test's own name list honest: it
// must match the registered suite exactly, so the -list and usage-error
// assertions below cover every analyzer that actually runs.
func TestAnalyzerNameListIsCurrent(t *testing.T) {
	suite := analyzers.All()
	if len(suite) != len(allAnalyzerNames) {
		t.Fatalf("allAnalyzerNames has %d names, suite registers %d", len(allAnalyzerNames), len(suite))
	}
	for i, a := range suite {
		if a.Name != allAnalyzerNames[i] {
			t.Errorf("suite[%d] = %q, allAnalyzerNames[%d] = %q", i, a.Name, i, allAnalyzerNames[i])
		}
	}
}

var allAnalyzerNames = []string{
	"detrand", "counterbalance", "maporder", "atomicmix",
	"seedtaint", "lockreach", "goroleak", "errdrop", "hotalloc",
	"sharedguard", "shardconfine",
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -list: exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range allAnalyzerNames {
		if !strings.Contains(out.String(), name) {
			t.Errorf("sfvet -list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestUnknownAnalyzerIsUsageError pins the exit-code contract (2 for usage
// errors) and the help the message must carry: the full list of valid
// names, so a typo is a one-round-trip fix.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("sfvet -only nosuch: exit %d, want 2", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", msg)
	}
	for _, name := range allAnalyzerNames {
		if !strings.Contains(msg, name) {
			t.Errorf("unknown-analyzer message does not list valid name %q: %s", name, msg)
		}
	}
}

func TestSingleAnalyzerOverOnePackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "detrand", "./internal/rng/..."}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -only detrand ./internal/rng/...: exit %d\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
}

// TestJSONOutputIsWellFormed: -json must emit a JSON array (empty for a
// clean package) that CI tooling can consume without parsing the human
// form.
func TestJSONOutputIsWellFormed(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "-only", "detrand", "./internal/rng/..."}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -json: exit %d\nstderr: %s", code, errOut.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("expected clean package, got %d diagnostics: %v", len(diags), diags)
	}
}

// TestGitHubModeEmitsNothingWhenClean: ::error annotations appear only for
// findings.
func TestGitHubModeEmitsNothingWhenClean(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-github", "-only", "detrand", "./internal/rng/..."}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -github: exit %d\nstderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "::error") {
		t.Errorf("clean run emitted annotations:\n%s", out.String())
	}
}

// TestUnusedAllowConflictsWithOnly pins the flag-composition rule: with a
// partial suite every directive for a skipped analyzer would read as stale,
// so the combination is a usage error, not a quietly wrong report.
func TestUnusedAllowConflictsWithOnly(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-unusedallow", "-only", "detrand", "./internal/rng/..."}, &out, &errOut); code != 2 {
		t.Fatalf("sfvet -unusedallow -only detrand: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-unusedallow conflicts with -only") {
		t.Errorf("stderr missing conflict message: %s", errOut.String())
	}
}

// TestUnusedAllowWarningsDoNotChangeExitStatus runs the full suite with
// -unusedallow over internal/rng — whose one detrand directive is live — and
// requires a clean exit with no warning lines.
func TestUnusedAllowWarningsDoNotChangeExitStatus(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-unusedallow", "./internal/rng/..."}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -unusedallow ./internal/rng/...: exit %d\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), "unused //lint:allow") {
		t.Errorf("live directive reported stale:\n%s", out.String())
	}
}

// TestReportUnusedAllowsFormats covers both output forms off a synthetic
// directive: the human file:line form and the -github ::warning annotation
// (which must not be a ::error — stale allows warn, never fail).
func TestReportUnusedAllowsFormats(t *testing.T) {
	unused := []framework.AllowDirective{
		{File: "internal/x/x.go", Line: 12, Analyzer: "detrand", Reason: "old excuse"},
	}

	var out, errOut bytes.Buffer
	reportUnusedAllows(unused, false, &out, &errOut)
	if want := "internal/x/x.go:12: unused //lint:allow detrand directive (old excuse)\n"; out.String() != want {
		t.Errorf("human form = %q, want %q", out.String(), want)
	}
	if !strings.Contains(errOut.String(), "1 unused //lint:allow directive(s)") {
		t.Errorf("summary missing from stderr: %s", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	reportUnusedAllows(unused, true, &out, &errOut)
	if !strings.HasPrefix(out.String(), "::warning file=internal/x/x.go,line=12,title=sfvet/unusedallow::") {
		t.Errorf("github form not a ::warning annotation: %q", out.String())
	}
	if strings.Contains(out.String(), "::error") {
		t.Errorf("stale allows must warn, not error: %q", out.String())
	}
}

// TestExportDataFailureIsDistinct pins the fail-fast contract for a stale
// build cache: errors.Is(err, framework.ErrExportData) must route to the
// message that names the remedy, and anything else to the plain form.
func TestExportDataFailureIsDistinct(t *testing.T) {
	var errOut bytes.Buffer
	err := fmt.Errorf("loading export data for sendforget/internal/view failed (%w)", framework.ErrExportData)
	if code := failLoad(err, &errOut); code != 2 {
		t.Fatalf("failLoad exit %d, want 2", code)
	}
	msg := errOut.String()
	for _, part := range []string{"stale or missing build cache", "go build ./..."} {
		if !strings.Contains(msg, part) {
			t.Errorf("export-data failure message missing %q: %s", part, msg)
		}
	}

	errOut.Reset()
	if code := failLoad(fmt.Errorf("some other load error"), &errOut); code != 2 {
		t.Fatalf("failLoad exit %d, want 2", code)
	}
	if strings.Contains(errOut.String(), "build cache") {
		t.Errorf("ordinary load error got the export-data message: %s", errOut.String())
	}
}

func TestGitHubEscape(t *testing.T) {
	got := githubEscape("50% loss\r\nnext")
	want := "50%25 loss%0D%0Anext"
	if got != want {
		t.Errorf("githubEscape = %q, want %q", got, want)
	}
}

// TestWholeRepoIsClean is the CLI-level form of the suite's acceptance
// criterion: zero diagnostics over every package, exit status 0. The run
// carries -unusedallow, so it doubles as the stale-suppression audit: every
// //lint:allow directive in the tree must still be earning its keep.
func TestWholeRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-unusedallow"}, &out, &errOut); code != 0 {
		t.Fatalf("sfvet -unusedallow ./...: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("sfvet -unusedallow ./... printed diagnostics or stale directives despite exit 0:\n%s", out.String())
	}
}

// BenchmarkSfvetRepo is the whole-repo smoke benchmark: one full suite run —
// load, call graph, program-wide fixpoints, eleven analyzers over every
// package — per iteration. It bounds the CI vet budget (the workflow
// parses its ns/op figure and fails above the stated budget); a
// regression here is a regression in every CI run.
func BenchmarkSfvetRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out, errOut bytes.Buffer
		if code := run(nil, &out, &errOut); code != 0 {
			b.Fatalf("sfvet ./...: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"strings"
	"syscall"
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
	"sharedguard", "lockreach", "errdrop", "hotalloc", "detrand",
	"maporder", "atomicmix", "counterbalance", "goroleak",
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

// staleFixture is a package with one //lint:allow that suppresses a live
// detrand finding and one that suppresses nothing.
const staleFixture = "sendforget/internal/analyzers/testdata/src/unusedallow"

// TestStaleAllowIsAFinding: a run of every analyzer over the whole module
// reports the directive that suppresses nothing as an unusedallow finding
// and exits 1, in both output forms. A run with -only, or over a narrower
// pattern, skips the check: there a directive for an analyzer that did not
// run, or whose finding needs a package the run did not load, looks stale.
func TestStaleAllowIsAFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"./...", staleFixture}, "unusedallow.go:16: [unusedallow] //lint:allow detrand directive suppresses nothing (stale: the wall-clock read this excused is gone): remove it\n"},
		{[]string{"-github", "./...", staleFixture}, ",line=16,col=0,title=sfvet/unusedallow::"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 1 {
			t.Fatalf("sfvet %v: exit %d, want 1\nstdout: %s\nstderr: %s", tc.args, code, out.String(), errOut.String())
		}
		if lines := strings.Count(out.String(), "\n"); lines != 1 || !strings.Contains(out.String(), tc.want) {
			t.Errorf("sfvet %v printed %d line(s), want one containing %q:\n%s", tc.args, lines, tc.want, out.String())
		}
		if tc.args[0] == "-github" && !strings.HasPrefix(out.String(), "::error file=") {
			t.Errorf("sfvet -github: stale directive is not an ::error annotation: %q", out.String())
		}
	}
	for _, args := range [][]string{{"-only", "detrand", "./...", staleFixture}, {staleFixture}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 || out.Len() != 0 {
			t.Errorf("sfvet %v: exit %d, stdout %q; want 0 and nothing", args, code, out.String())
		}
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
// also reports stale directives, so it doubles as the stale-suppression
// audit: every //lint:allow directive in the tree must still be earning its
// keep.
func TestWholeRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("sfvet ./...: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("sfvet ./... printed diagnostics despite exit 0:\n%s", out.String())
	}
}

// BenchmarkSfvetRepo is the whole-repo smoke benchmark: one full suite run —
// load, call graph, program-wide fixpoints, nine analyzers over every
// package — per iteration. It bounds the CI vet budget (the workflow
// parses its ns/op figure and fails above the stated budget); a
// regression here is a regression in every CI run. Beside ns/op it reports
// cpu-s/op: the user and system time of the process and of its waited-for
// children (the loader's go list -export), which waiting on a busy host
// does not inflate as it does wall time.
func BenchmarkSfvetRepo(b *testing.B) {
	before := cpuSeconds(b)
	for i := 0; i < b.N; i++ {
		var out, errOut bytes.Buffer
		if code := run(nil, &out, &errOut); code != 0 {
			b.Fatalf("sfvet ./...: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	}
	b.ReportMetric((cpuSeconds(b)-before)/float64(b.N), "cpu-s/op")
}

// cpuSeconds returns the user plus system time of this process and of its
// waited-for children so far, from getrusage.
func cpuSeconds(b *testing.B) float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			b.Fatal(err)
		}
		total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return total
}

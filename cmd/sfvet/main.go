// Command sfvet runs the repository's static-analysis suite — the ten
// invariant checkers in internal/analyzers — over the named package
// patterns and prints every diagnostic in file:line:col form. It is the
// multichecker CI and the Makefile `vet` target invoke; both run
//
//	go run ./cmd/sfvet ./...
//
// so contributors see exactly the diagnostics CI enforces. Exit status is
// 0 when clean, 1 when any diagnostic fired, 2 on usage or load errors.
// A load failure caused by missing compiled export data (a stale build
// cache, not broken source) is reported distinctly, with the `go build
// ./...` remedy, so CI logs point at the cache rather than the code.
//
// Packages are analyzed in parallel (the export data, call graph, and
// program-wide fixpoints are built once and shared); diagnostic order is
// deterministic regardless of -parallel.
//
// Flags:
//
//	-list             print the analyzers and their one-line docs, then exit
//	-only name[,name] run only the named analyzers
//	-json             print diagnostics as a JSON array on stdout
//	-github           print GitHub Actions ::error workflow annotations
//	-unusedallow      also report //lint:allow directives that suppressed
//	                  nothing this run (stale escape hatches); warnings only,
//	                  the exit status is unchanged. Conflicts with -only,
//	                  since staleness is meaningful only for a full-suite run.
//	-parallel n       analyze up to n packages concurrently (default GOMAXPROCS)
//
// Suppression is per line in the source, not per invocation: a reviewed
// exception carries a `//lint:allow <analyzer> <reason>` comment (see
// internal/analyzers/framework).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"sendforget/internal/analyzers"
	"sendforget/internal/analyzers/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire shape: one object per diagnostic, stable
// field names so CI tooling can consume it without parsing the human form.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "print diagnostics as a JSON array on stdout")
	github := fs.Bool("github", false, "print GitHub Actions ::error annotations")
	unusedAllow := fs.Bool("unusedallow", false, "also report //lint:allow directives that suppressed nothing (warnings; exit status unchanged)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max packages analyzed concurrently")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *unusedAllow && *only != "" {
		fmt.Fprintln(stderr, "sfvet: -unusedallow conflicts with -only: a directive for an analyzer that did not run always looks stale")
		return 2
	}
	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*framework.Analyzer, len(suite))
		valid := make([]string, 0, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
			valid = append(valid, a.Name)
		}
		sort.Strings(valid)
		var selected []*framework.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "sfvet: unknown analyzer %q; valid analyzers: %s\n",
					name, strings.Join(valid, ", "))
				return 2
			}
			selected = append(selected, a)
		}
		suite = selected
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := framework.NewLoader("")
	if err != nil {
		fmt.Fprintf(stderr, "sfvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return failLoad(err, stderr)
	}
	prog := framework.NewProgram(pkgs)
	diags, err := prog.AnalyzeAll(suite, *parallel)
	if err != nil {
		fmt.Fprintf(stderr, "sfvet: %v\n", err)
		return 2
	}
	switch {
	case *asJSON:
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "sfvet: %v\n", err)
			return 2
		}
	case *github:
		for _, d := range diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sfvet/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *unusedAllow {
		warnOut := stdout
		if *asJSON {
			warnOut = stderr // keep stdout a pure JSON array
		}
		reportUnusedAllows(prog.UnusedAllows(), *github, warnOut, stderr)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sfvet: %d diagnostic(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// failLoad prints a package-load failure and returns the usage/load exit
// status. A failure rooted in missing export data gets the distinct message
// the CI step and `make vet` rely on: the build cache is stale, not the
// source, and `go build ./...` repairs it.
func failLoad(err error, stderr io.Writer) int {
	if errors.Is(err, framework.ErrExportData) {
		fmt.Fprintln(stderr, "sfvet: cannot load compiled export data (stale or missing build cache, not a source error)")
		fmt.Fprintln(stderr, "sfvet: run `go build ./...` to repopulate the cache, then re-run sfvet")
		fmt.Fprintf(stderr, "sfvet: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "sfvet: %v\n", err)
	return 2
}

// reportUnusedAllows prints one warning per stale //lint:allow directive —
// a grant that suppressed nothing across the full run. Warnings never change
// the exit status: a stale directive means a diagnostic disappeared, which is
// progress to harvest, not a regression to block on. Under -github the
// warnings are ::warning workflow annotations so they surface on the PR
// without failing the check.
func reportUnusedAllows(unused []framework.AllowDirective, github bool, stdout, stderr io.Writer) {
	for _, u := range unused {
		if github {
			fmt.Fprintf(stdout, "::warning file=%s,line=%d,title=sfvet/unusedallow::unused //lint:allow %s directive (%s)\n",
				u.File, u.Line, u.Analyzer, githubEscape(u.Reason))
			continue
		}
		fmt.Fprintf(stdout, "%s:%d: unused //lint:allow %s directive (%s)\n", u.File, u.Line, u.Analyzer, u.Reason)
	}
	if len(unused) > 0 {
		fmt.Fprintf(stderr, "sfvet: %d unused //lint:allow directive(s); remove them or re-justify\n", len(unused))
	}
}

// githubEscape applies the workflow-command data escaping rules: percent,
// CR, and LF must be URL-style escaped or the runner truncates the message.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

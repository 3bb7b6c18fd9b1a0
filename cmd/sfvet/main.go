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
// Each analyzer runs once over the whole loaded program, one after another
// (the export data and call graph are built once and shared), and the
// diagnostics come out in position order.
//
// Flags:
//
//	-list             print the analyzers and their one-line docs, then exit
//	-only name[,name] run only the named analyzers
//	-github           print GitHub Actions ::error workflow annotations
//
// Suppression is per line in the source, not per invocation: a reviewed
// exception carries a `//lint:allow <analyzer> <reason>` comment (see
// internal/analyzers/framework). A run of every analyzer over the whole
// module (./...) also reports each directive that suppressed nothing as an
// "unusedallow" finding, so a stale escape hatch fails the run like any
// other diagnostic. A run with -only, or over a narrower pattern, skips that
// check: a directive for an analyzer that did not run always looks stale,
// and so does one whose finding needs packages the run did not load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"sendforget/internal/analyzers"
	"sendforget/internal/analyzers/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	github := fs.Bool("github", false, "print GitHub Actions ::error annotations")
	if err := fs.Parse(args); err != nil {
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
	diags := prog.Run(suite)
	if *only == "" && slices.Contains(patterns, "./...") {
		diags = append(diags, unusedAllows(prog.UnusedAllows())...)
	}
	for _, d := range diags {
		if *github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sfvet/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		} else {
			fmt.Fprintln(stdout, d)
		}
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

// unusedAllows turns each //lint:allow directive that suppressed nothing in
// a whole-module run of every analyzer into an "unusedallow" finding: the
// diagnostic it once silenced is gone, so the directive goes too.
func unusedAllows(unused []framework.AllowDirective) []framework.Diagnostic {
	diags := make([]framework.Diagnostic, 0, len(unused))
	for _, u := range unused {
		diags = append(diags, framework.Diagnostic{
			Analyzer: "unusedallow",
			Pos:      token.Position{Filename: u.File, Line: u.Line},
			Message:  fmt.Sprintf("//lint:allow %s directive suppresses nothing (%s): remove it", u.Analyzer, u.Reason),
		})
	}
	return diags
}

// githubEscape applies the workflow-command data escaping rules: percent,
// CR, and LF must be URL-style escaped or the runner truncates the message.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

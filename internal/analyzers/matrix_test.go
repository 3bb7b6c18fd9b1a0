package analyzers

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sendforget/internal/analyzers/framework"
)

// detectionMatrix is every fixture directory × every analyzer → the sorted
// lines flagged after //lint:allow suppression; analyzers that stay silent
// on a fixture are omitted. It is the gate for merging or replacing
// analyzers: a plant line may change which analyzer catches it, but it may
// not drop out of the table. A plant whose invariant moved from an analyzer
// to the type system is a fixture that does not type-check: its row is the
// lines of its type errors, under "compiler".
var detectionMatrix = map[string]map[string][]int{
	"atomicmix":                {"atomicmix": {20, 42, 48}},
	"churnplant":               {"sharedguard": {56}},
	"counterbalance":           {"counterbalance": {36, 59, 60}},
	"detrand":                  {"detrand": {7, 8, 9, 18, 21, 25}},
	"errdrop":                  {"errdrop": {23, 27, 33, 38, 43}, "goroleak": {79}},
	"goroleak":                 {"goroleak": {26, 33}, "sharedguard": {21, 41, 56, 78}},
	"hotalloc":                 {"goroleak": {73}, "hotalloc": {25, 40, 49, 56, 61, 65, 69, 73, 81, 87}, "sharedguard": {21, 93}},
	"hotplant":                 {"hotalloc": {53}},
	"ledgerplant":              {"counterbalance": {32}},
	"lockreach":                {"lockreach": {35, 41, 55, 66, 100}},
	"lockreach/lockdiscipline": {"goroleak": {90}, "lockreach": {25, 32, 38, 43, 50, 56, 70, 116}},
	"maporder":                 {"maporder": {14, 45, 52, 68, 78}},
	"seedcollision":            {"seedtaint": {17, 23}},
	"seedtaint":                {"seedtaint": {24, 29, 44}},
	"seedtaint/seedflow":       {"seedtaint": {21, 25, 29, 33, 37}},
	"shardconfine":             {"shardconfine": {59, 60, 98}},
	"shardmail":                {"shardconfine": {79}},
	"shardplant":               {"shardconfine": {55}},
	"shardtype":                {"compiler": {33}},
	"sharedguard":              {"goroleak": {46, 66, 89}, "sharedguard": {25, 81}},
	"unusedallow":              {},
}

// fixtureDirs lists every directory under testdata/src that holds Go
// files, as slash-separated paths relative to it.
func fixtureDirs(t *testing.T) []string {
	root := filepath.Join("testdata", "src")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			seen[filepath.ToSlash(rel)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

var typeErrorPos = regexp.MustCompile(`\.go:(\d+):\d+: `)

// typeErrorLines returns the source lines named by the type errors in a
// fixture load error (nil for any other error, or none).
func typeErrorLines(err error) []int {
	if err == nil || !strings.Contains(err.Error(), "type errors in") {
		return nil
	}
	var lines []int
	for _, m := range typeErrorPos.FindAllStringSubmatch(err.Error(), -1) {
		n, _ := strconv.Atoi(m[1])
		lines = append(lines, n)
	}
	return lines
}

func TestDetectionMatrix(t *testing.T) {
	got := map[string]map[string][]int{}
	for _, dir := range fixtureDirs(t) {
		diags, err := framework.FixtureDiagnostics(fixture(dir), All()...)
		if lines := typeErrorLines(err); lines != nil {
			got[dir] = map[string][]int{"compiler": lines}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		row := map[string][]int{}
		for _, d := range diags {
			lines := row[d.Analyzer]
			if n := len(lines); n == 0 || lines[n-1] != d.Pos.Line {
				row[d.Analyzer] = append(lines, d.Pos.Line)
			}
		}
		got[dir] = row
	}
	if reflect.DeepEqual(got, detectionMatrix) {
		return
	}
	var sb strings.Builder
	for _, dir := range fixtureDirs(t) {
		fmt.Fprintf(&sb, "\t%q: {", dir)
		names := make([]string, 0, len(got[dir]))
		for name := range got[dir] {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				sb.WriteString(", ")
			}
			lines := strings.Trim(fmt.Sprint(got[dir][name]), "[]")
			fmt.Fprintf(&sb, "%q: {%s}", name, strings.ReplaceAll(lines, " ", ", "))
		}
		sb.WriteString("},\n")
	}
	t.Errorf("detection matrix changed; the suite now reports:\n%s", sb.String())
}

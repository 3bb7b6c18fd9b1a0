package analyzers

import (
	"fmt"
	"io/fs"
	"os"
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
	"gateplant":                {"sharedguard": {119}},
	"goroleak":                 {"goroleak": {26, 33}, "sharedguard": {21, 41, 56, 78}},
	"hotalloc":                 {"goroleak": {73}, "hotalloc": {25, 40, 49, 56, 61, 65, 69, 73, 81, 87}, "sharedguard": {21, 93}},
	"hotplant":                 {"hotalloc": {53}},
	"ledgerplant":              {"counterbalance": {32}},
	"lockreach":                {"lockreach": {35, 41, 55, 66, 100}},
	"lockreach/lockdiscipline": {"goroleak": {90}, "lockreach": {25, 32, 38, 43, 50, 56, 70, 116}},
	"maporder":                 {"maporder": {14, 45, 52, 68, 78}},
	"seedcollision":            {"compiler": {18, 24}},
	"seedtaint":                {"compiler": {20, 25, 40}},
	"seedtaint/seedflow":       {"detrand": {26, 30, 34, 38, 42, 44, 54}},
	"shardmail":                {"compiler": {65}},
	"shardplant":               {"compiler": {43}},
	"shardtype":                {"compiler": {33}},
	"sharedguard":              {"goroleak": {44, 67}, "sharedguard": {24, 59}},
	"substrateplant":           {"compiler": {18}},
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

// compilerPlants are the fixtures of invariants the type system took over,
// the "compiler" rows of the matrix: each must fail to type-check with one
// error on each line marked "// the planted" and none elsewhere, and every
// error must be the way the invariant forbids the plant.
var compilerPlants = []struct{ dir, err string }{
	// A *shard phase method reaching for a sibling shard.
	{"shardtype", "sh.shards undefined (type *shard has no field or method shards)"},
	// A pool worker reaching for the engine's shards.
	{"shardplant", "p.shards undefined (type *pool has no field or method shards)"},
	// A worker resetting mail through its column, which is read-only.
	{"shardmail", "j.in[0].Reset undefined (type protocol.Lane has no field or method Reset)"},
	// A concrete substrate built outside internal/runtime.
	{"substrateplant", "undefined: runtime.newSharded"},
	// An int64 seeding a stream: the old cluster's Seed+u+1, written in
	// place or routed through a helper, a local or a struct field.
	{"seedcollision", "of type int64) as rng.Seed value in argument to rng.New"},
	{"seedtaint", "of type int64) as rng.Seed value in argument to rng.New"},
}

func TestCompilerPlants(t *testing.T) {
	for _, p := range compilerPlants {
		t.Run(p.dir, func(t *testing.T) {
			if _, ok := detectionMatrix[p.dir]["compiler"]; !ok {
				t.Errorf("%s has no compiler row in the detection matrix", p.dir)
			}
			src, err := os.ReadFile(filepath.Join(fixture(p.dir), p.dir+".go"))
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "// the planted") {
					want = append(want, i+1)
				}
			}
			if want == nil {
				t.Fatal("the fixture lost its planted lines")
			}

			loader, err := framework.NewLoader("")
			if err != nil {
				t.Fatal(err)
			}
			_, err = loader.LoadDir(fixture(p.dir))
			if lines := typeErrorLines(err); !reflect.DeepEqual(lines, want) {
				t.Fatalf("want one type error on each planted line %v; loading gave: %v", want, err)
			}
			if strings.Count(err.Error(), p.err) != len(want) {
				t.Errorf("a type error is not %q: %v", p.err, err)
			}
		})
	}
}

// TestFixtureAllowsAreUsed runs the whole suite over every fixture that
// type-checks and requires each of its //lint:allow directives to suppress
// something — a finding, or one of hotalloc's call edges — apart from the
// deliberately stale directive of the unusedallow fixture.
func TestFixtureAllowsAreUsed(t *testing.T) {
	loader, err := framework.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, dir := range fixtureDirs(t) {
		pkg, err := loader.LoadDir(fixture(dir))
		if typeErrorLines(err) != nil {
			continue // a compiler row: the plant does not type-check
		}
		if err != nil {
			t.Fatal(err)
		}
		prog := framework.NewProgram([]*framework.Package{pkg})
		prog.Run(All())
		for _, d := range prog.UnusedAllows() {
			unused = append(unused, fmt.Sprintf("%s/%s:%d %s", dir, filepath.Base(d.File), d.Line, d.Analyzer))
		}
	}
	if want := []string{"unusedallow/unusedallow.go:16 detrand"}; !reflect.DeepEqual(unused, want) {
		t.Errorf("unused //lint:allow directives in the fixtures: %v, want only %v", unused, want)
	}
}

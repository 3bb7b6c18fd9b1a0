package main

import (
	"os"
	"testing"

	"sendforget/internal/trace"
)

func TestRunSF(t *testing.T) {
	args := []string{"-protocol", "sf", "-n", "60", "-s", "12", "-dl", "4", "-loss", "0.05", "-rounds", "50", "-seed", "7"}
	if code := run(args); code != 0 {
		t.Errorf("sf run exit = %d", code)
	}
}

func TestRunShuffle(t *testing.T) {
	args := []string{"-protocol", "shuffle", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args); code != 0 {
		t.Errorf("shuffle run exit = %d", code)
	}
}

func TestRunPushPull(t *testing.T) {
	args := []string{"-protocol", "pushpull", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args); code != 0 {
		t.Errorf("pushpull run exit = %d", code)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if code := run([]string{"-protocol", "raft"}); code != 2 {
		t.Errorf("unknown protocol exit = %d, want 2", code)
	}
}

func TestRunBadParams(t *testing.T) {
	if code := run([]string{"-protocol", "sf", "-s", "7"}); code != 2 {
		t.Errorf("odd view size exit = %d, want 2", code)
	}
	if code := run([]string{"-loss", "1.5"}); code != 2 {
		t.Errorf("bad loss exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus"}); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-rounds", "-5"}); code != 2 {
		t.Errorf("negative rounds exit = %d, want 2", code)
	}
}

func TestRunWithTrace(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.jsonl"
	args := []string{"-n", "40", "-s", "12", "-dl", "4", "-rounds", "20", "-trace", path}
	if code := run(args); code != 0 {
		t.Fatalf("traced run exit = %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := trace.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 800 {
		t.Errorf("trace has %d records, want 800", len(records))
	}
}

func TestRunTraceBadPath(t *testing.T) {
	if code := run([]string{"-rounds", "1", "-trace", "/no/such/dir/x.jsonl"}); code != 2 {
		t.Errorf("bad trace path exit = %d, want 2", code)
	}
}

func TestRunFlipper(t *testing.T) {
	args := []string{"-protocol", "flipper", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args); code != 0 {
		t.Errorf("flipper run exit = %d", code)
	}
}

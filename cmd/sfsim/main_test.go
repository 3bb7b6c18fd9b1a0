package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
	"sendforget/internal/trace"
	"sendforget/internal/view"
)

func TestRunSF(t *testing.T) {
	args := []string{"-protocol", "sf", "-n", "60", "-s", "12", "-dl", "4", "-loss", "0.05", "-rounds", "50", "-seed", "7"}
	if code := run(args, io.Discard); code != 0 {
		t.Errorf("sf run exit = %d", code)
	}
}

func TestRunShuffle(t *testing.T) {
	args := []string{"-protocol", "shuffle", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args, io.Discard); code != 0 {
		t.Errorf("shuffle run exit = %d", code)
	}
}

func TestRunPushPull(t *testing.T) {
	args := []string{"-protocol", "pushpull", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args, io.Discard); code != 0 {
		t.Errorf("pushpull run exit = %d", code)
	}
}

// TestRunSFOpt: sfsim runs the optimized S&F variant sfnode offers, with
// ReplaceWhenFull and Undelete on and the S&F bootstrap degree, and prints
// the summary every protocol shares.
func TestRunSFOpt(t *testing.T) {
	var out strings.Builder
	args := []string{"-protocol", "sfopt", "-n", "60", "-s", "12", "-dl", "4", "-loss", "0.05", "-rounds", "50", "-seed", "7"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("sfopt run exit = %d", code)
	}
	for _, want := range []string{
		"protocol        s&f-opt+replace+undelete\n",
		"steps           3000 ",
		"components      1 (weakly connected: true)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "dup prob") {
		t.Errorf("summary reports S&F's Lemma 6.6 identity, which the variant does not keep:\n%s", out.String())
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if code := run([]string{"-protocol", "raft"}, io.Discard); code != 2 {
		t.Errorf("unknown protocol exit = %d, want 2", code)
	}
}

func TestRunBadParams(t *testing.T) {
	if code := run([]string{"-protocol", "sf", "-s", "7"}, io.Discard); code != 2 {
		t.Errorf("odd view size exit = %d, want 2", code)
	}
	if code := run([]string{"-loss", "1.5"}, io.Discard); code != 2 {
		t.Errorf("bad loss exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, io.Discard); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-rounds", "-5"}, io.Discard); code != 2 {
		t.Errorf("negative rounds exit = %d, want 2", code)
	}
}

// TestRunWithTrace: -trace writes one line per step, and the log replays
// every node's view of the run, which the test repeats untraced (seq is
// seeded). The default S&F core is sendforget.TrackedCore, so the heads are
// a PerNode core's seeds.
func TestRunWithTrace(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	args := []string{"-n", "40", "-s", "12", "-dl", "4", "-init", "6", "-loss", "0.05", "-rounds", "20", "-seed", "3", "-trace", path}
	if code := run(args, io.Discard); code != 0 {
		t.Fatalf("traced run exit = %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.Load(bytes.NewReader(data), 40)
	if err != nil {
		t.Fatal(err)
	}
	newCore := func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(12, 4) }
	sub, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: 40, NewCore: newCore, InitDegree: 6, Loss: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runtime.Run(sub, 20)
	sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		var p trace.Replay
		if err := p.Run(newCore, rec.Log(u)); err != nil || !p.View.Equal(lv) {
			t.Errorf("node %d: replay %v (%v), live %v", u, p.View, err, lv)
		}
	})
	if c, lines := sub.Counters(), bytes.Count(data, []byte("\n")); lines != c.Ticks+c.Receives || c.Ticks != 800 {
		t.Errorf("trace has %d lines, want one per step: %d initiates and %d receives", lines, c.Ticks, c.Receives)
	}
}

func TestRunTraceBadPath(t *testing.T) {
	if code := run([]string{"-rounds", "1", "-trace", "/no/such/dir/x.jsonl"}, io.Discard); code != 2 {
		t.Errorf("bad trace path exit = %d, want 2", code)
	}
}

func TestRunFlipper(t *testing.T) {
	args := []string{"-protocol", "flipper", "-n", "60", "-s", "12", "-rounds", "50"}
	if code := run(args, io.Discard); code != 0 {
		t.Errorf("flipper run exit = %d", code)
	}
}

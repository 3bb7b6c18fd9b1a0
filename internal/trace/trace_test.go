package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

var factories = []struct {
	name string
	f    protocol.CoreFactory
}{
	{"sf", func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) }},
	{"sf-tracked", func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(12, 4) }},
	{"sfopt", func() (protocol.StepCore, error) {
		return sfopt.NewCore(sfopt.Options{S: 12, DL: 4, ReplaceWhenFull: true, Undelete: true})
	}},
	{"shuffle", func() (protocol.StepCore, error) { return shuffle.NewCore(12) }},
	{"flipper", func() (protocol.StepCore, error) { return flipper.NewCore(12) }},
	{"pushpull", func() (protocol.StepCore, error) { return pushpull.NewCore(12) }},
}

// recorded runs a 30-node overlay of f's cores on engine for 20 rounds at
// 20 % loss, with every step logged.
func recorded(t *testing.T, engine runtime.EngineKind, f protocol.CoreFactory) (runtime.Substrate, *Recorder) {
	t.Helper()
	rec := NewRecorder(30)
	sub, err := runtime.New(runtime.Config{Engine: engine, N: 30, NewCore: rec.Wrap(f), InitDegree: 6, Loss: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	runtime.Run(sub, 20)
	return sub, rec
}

// mismatches replays every live node of sub from rec and lists those whose
// replay differs from the live view.
func mismatches(t *testing.T, sub runtime.Substrate, rec *Recorder, f protocol.CoreFactory) (bad []peer.ID) {
	t.Helper()
	sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		var p Replay
		if err := p.Run(f, rec.Log(u)); err != nil {
			t.Fatalf("node %d: %v", u, err)
		}
		if !p.View.Equal(lv) {
			bad = append(bad, u)
		}
	})
	return bad
}

// TestRecorderRoundtrip: on seq, whose nodes share one stream, every protocol's log
// replays every view, before and after a round trip through JSON Lines, and
// holds one entry per step the counters tallied.
func TestRecorderRoundtrip(t *testing.T) {
	for _, tc := range factories {
		t.Run(tc.name, func(t *testing.T) {
			sub, rec := recorded(t, runtime.EngineSeq, tc.f)
			initiates, receives := 0, 0
			for _, u := range peer.Range(30) {
				for _, st := range rec.Log(u) {
					if st.Recv == nil {
						initiates++
					} else {
						receives++
					}
				}
			}
			if c := sub.Counters(); initiates != c.Ticks || receives != c.Receives || c.Replies == 0 && tc.name == "shuffle" {
				t.Errorf("log holds %d initiates and %d receives; counters %+v", initiates, receives, c)
			}
			if bad := mismatches(t, sub, rec, tc.f); bad != nil {
				t.Errorf("replay differs from the live view at nodes %v", bad)
			}
			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(buf.String(), "\n"); lines != initiates+receives {
				t.Errorf("%d lines for %d steps", lines, initiates+receives)
			}
			loaded, err := Load(&buf, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded.logs, rec.logs) {
				t.Error("the logs changed in a round trip through JSON Lines")
			}
		})
	}
}

// TestReplayCatchesOutOfStepWrite: on cluster, whose nodes draw from their
// own streams, the logged RNG states chain from step to step, and a write to
// a view from outside its node's steps makes that node's replay differ.
func TestReplayCatchesOutOfStepWrite(t *testing.T) {
	f := factories[0].f
	sub, rec := recorded(t, runtime.EngineCluster, f)
	sub.EachNode(func(u peer.ID, _ *view.View, _ protocol.StepCore) {
		var p Replay
		if err := p.Run(f, rec.Log(u)); err != nil || p.Jumps != 0 {
			t.Errorf("node %d: %d steps began at another stream state than the last left (%v)", u, p.Jumps, err)
		}
	})
	sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		if u == 7 {
			lv.Set(0, lv.Slot(0)+1)
		}
	})
	if bad := mismatches(t, sub, rec, f); !reflect.DeepEqual(bad, []peer.ID{7}) {
		t.Errorf("replay differs at %v, want node 7 only", bad)
	}
}

// TestWrapKeepsCoreKind: a recorded PerNode core is still PerNode, so each
// node keeps its own, and the S&F dependence tags read the same through the
// recorder as without it.
func TestWrapKeepsCoreKind(t *testing.T) {
	for _, tc := range factories {
		c, _ := tc.f()
		w, err := NewRecorder(1).Wrap(tc.f)()
		if err != nil {
			t.Fatal(err)
		}
		_, bare := c.(protocol.PerNode)
		if _, wrapped := w.(protocol.PerNode); bare != wrapped || reflect.TypeOf(protocol.Unwrap(w)) != reflect.TypeOf(c) {
			t.Errorf("%s: PerNode %t, recorded %t; recorded core unwraps to %T", tc.name, bare, wrapped, protocol.Unwrap(w))
		}
	}
	tracked := factories[1].f
	plain, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: 30, NewCore: tracked, InitDegree: 6, Loss: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	runtime.Run(plain, 20)
	sub, _ := recorded(t, runtime.EngineSeq, tracked)
	var want, got sendforget.DependenceStats
	plain.EachNode(want.Add)
	sub.EachNode(got.Add)
	if got != want || want.Tagged == 0 {
		t.Errorf("dependence through the recorder %+v, without %+v", got, want)
	}
}

func TestLoadErrors(t *testing.T) {
	for _, in := range []string{"{bad json}\n", `{"node":30,"rng":[1,2,3,4]}`, `{"node":-1,"rng":[1,2,3,4]}`} {
		if _, err := Load(strings.NewReader(in), 30); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	rec, err := Load(strings.NewReader("\n\n"), 3)
	if err != nil || rec.Log(2) != nil {
		t.Errorf("blank lines: %v, %v", rec, err)
	}
	var p Replay
	if err := p.Run(factories[0].f, []Step{{Node: 1}}); err == nil {
		t.Error("replayed a step with no head before it")
	}
}

func TestRecorderWriteError(t *testing.T) {
	_, rec := recorded(t, runtime.EngineSeq, factories[0].f)
	if err := rec.Write(failWriter{}); err == nil {
		t.Error("write error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("synthetic write failure") }

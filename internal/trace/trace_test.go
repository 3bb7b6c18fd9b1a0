package trace

import (
	"bytes"
	"strings"
	"testing"

	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
)

// newSeq builds an n-node S&F overlay (s=12, dL=4, degree 8) on the seq
// engine, the one substrate with a per-action hook.
func newSeq(t *testing.T, n int, lossRate float64, seed int64) *runtime.Seq {
	t.Helper()
	sub, err := runtime.New(runtime.Config{
		Engine:     runtime.EngineSeq,
		N:          n,
		NewCore:    func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
		InitDegree: 8,
		Loss:       lossRate,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub.(*runtime.Seq)
}

func TestRecorderRoundtrip(t *testing.T) {
	e := newSeq(t, 30, 0.2, 1)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(e)
	runtime.Run(e, 20)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 600 {
		t.Fatalf("Count = %d, want 600", rec.Count())
	}
	records, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 600 {
		t.Fatalf("loaded %d records, want 600", len(records))
	}
	// The trace accounts for every action the ledgers counted.
	var selfLoops, sends, losses, delivered int
	for _, r := range records {
		if !r.Sent {
			selfLoops++
			continue
		}
		sends++
		if r.Lost {
			losses++
		}
		delivered += r.Delivered
	}
	tr := e.Traffic()
	if len(records) != e.Counters().Ticks || sends != tr.Sends || losses != tr.Losses || delivered != tr.Deliveries {
		t.Errorf("trace: %d steps, %d sends, %d losses, %d delivered; ledger %+v", len(records), sends, losses, delivered, tr)
	}
	if selfLoops == 0 || losses == 0 {
		t.Errorf("expected a mix of outcomes: %d self-loops, %d losses", selfLoops, losses)
	}
	// Steps are sequential.
	for i, r := range records {
		if r.Step != i+1 {
			t.Fatalf("record %d has step %d", i, r.Step)
		}
	}
}

func TestAttachChainsHooks(t *testing.T) {
	e := newSeq(t, 10, 0, 2)
	prevCalls := 0
	e.OnAction = func(runtime.ActionEvent) { prevCalls++ }
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(e)
	runtime.Run(e, 3)
	if prevCalls != 30 {
		t.Errorf("previous hook called %d times, want 30", prevCalls)
	}
	if rec.Count() != 30 {
		t.Errorf("recorder observed %d events, want 30", rec.Count())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{bad json}\n")); err == nil {
		t.Error("accepted malformed line")
	}
	records, err := Load(strings.NewReader("\n\n"))
	if err != nil || len(records) != 0 {
		t.Errorf("blank lines: %v, %v", records, err)
	}
}

func TestRecorderWriteError(t *testing.T) {
	rec := NewRecorder(failWriter{})
	for i := 0; i < 10000; i++ {
		rec.Observe(runtime.ActionEvent{Step: i + 1})
	}
	if err := rec.Flush(); err == nil {
		t.Error("write error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

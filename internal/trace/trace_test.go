package trace

import (
	"bytes"
	"strings"
	"testing"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
)

func sfCores() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) }

func TestRecorderRoundtrip(t *testing.T) {
	e, err := engine.New(sfCores, 30, 8, loss.MustUniform(0.2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(e)
	e.Run(20)
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
	s := Summarize(records)
	c := e.Traffic()
	if s.Steps != e.Tally().Ticks || s.Sends != c.Sends || s.Losses != c.Losses || s.Delivered != c.Deliveries {
		t.Errorf("summary %+v does not match counters %+v", s, c)
	}
	if s.SelfLoops == 0 || s.Losses == 0 {
		t.Errorf("expected a mix of outcomes: %+v", s)
	}
	// Steps are sequential.
	for i, r := range records {
		if r.Step != i+1 {
			t.Fatalf("record %d has step %d", i, r.Step)
		}
	}
}

func TestAttachChainsHooks(t *testing.T) {
	e, err := engine.New(sfCores, 10, 8, loss.None{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	prevCalls := 0
	e.OnAction = func(engine.ActionEvent) { prevCalls++ }
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(e)
	e.Run(3)
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
		rec.Observe(engine.ActionEvent{Step: i + 1})
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

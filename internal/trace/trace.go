// Package trace records simulation runs as JSON Lines for offline
// debugging and analysis. A Recorder attaches to runtime.Seq's OnAction hook
// and appends one compact record per protocol action; Load reads a trace
// back for assertions or replay tooling.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"sendforget/internal/runtime"
)

// Record is one traced protocol action.
type Record struct {
	Step        int   `json:"step"`
	Initiator   int32 `json:"from"`
	Sent        bool  `json:"sent"`
	To          int32 `json:"to,omitempty"`
	Lost        bool  `json:"lost,omitempty"`
	DeadLetters int   `json:"dead,omitempty"`
	Delivered   int   `json:"delivered,omitempty"`
}

// fromEvent converts a scheduler event.
func fromEvent(ev runtime.ActionEvent) Record {
	return Record{
		Step:        ev.Step,
		Initiator:   int32(ev.Initiator),
		Sent:        ev.Sent,
		To:          int32(ev.To),
		Lost:        ev.Lost,
		DeadLetters: ev.DeadLetters,
		Delivered:   ev.Delivered,
	}
}

// Recorder streams action records to a writer as JSON Lines. Safe for use
// from a single scheduler; Flush/Close from the owning goroutine.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewRecorder wraps w.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{w: bw, enc: json.NewEncoder(bw)}
}

// Attach registers the recorder on the scheduler's OnAction hook, chaining any
// previously installed hook.
func (rec *Recorder) Attach(e *runtime.Seq) {
	prev := e.OnAction
	e.OnAction = func(ev runtime.ActionEvent) {
		if prev != nil {
			prev(ev)
		}
		rec.Observe(ev)
	}
}

// Observe appends one event.
func (rec *Recorder) Observe(ev runtime.ActionEvent) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.err != nil {
		return
	}
	if err := rec.enc.Encode(fromEvent(ev)); err != nil {
		rec.err = err
		return
	}
	rec.n++
}

// Count returns the number of records written.
func (rec *Recorder) Count() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.n
}

// Flush drains the buffer and reports the first error encountered.
func (rec *Recorder) Flush() error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.err != nil {
		return rec.err
	}
	return rec.w.Flush()
}

// Load parses a JSON Lines trace.
func Load(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

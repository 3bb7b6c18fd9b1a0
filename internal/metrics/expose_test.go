package metrics

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromWriterFormat(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("x_total", "a counter.", 42)
	p.Gauge("y", "a gauge.", 1.5)
	if b.Len() != 0 {
		t.Errorf("wrote %q before Flush", b.String())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total a counter.\n# TYPE x_total counter\nx_total 42\n" +
		"# HELP y a gauge.\n# TYPE y gauge\ny 1.5\n"
	if b.String() != want {
		t.Errorf("exposition = %q, want %q", b.String(), want)
	}
}

// failWriter errors after n bytes to exercise sticky errors.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, strconv.ErrRange
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, strconv.ErrRange
	}
	return n, nil
}

func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(&failWriter{left: 10})
	p.Counter("x_total", "h", 1)
	p.Counter("y_total", "h", 2)
	if p.Flush() == nil {
		t.Fatal("expected write error")
	}
}

// promValues parses "name value" sample lines (comments skipped).
func promValues(t *testing.T, text string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		out[name] = value
	}
	return out
}

func TestTrafficWriteProm(t *testing.T) {
	tr := Traffic{
		Sends: 100, Losses: 5, Deliveries: 90, DeadLetters: 5,
		LinkLosses: 2, PartitionDrops: 1, Delayed: 7,
	}
	var b strings.Builder
	p := NewPromWriter(&b)
	tr.WriteProm(p, "sendforget")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got := promValues(t, b.String())
	want := map[string]string{
		"sendforget_traffic_sends_total":           "100",
		"sendforget_traffic_losses_total":          "5",
		"sendforget_traffic_deliveries_total":      "90",
		"sendforget_traffic_dead_letters_total":    "5",
		"sendforget_traffic_link_losses_total":     "2",
		"sendforget_traffic_partition_drops_total": "1",
		"sendforget_traffic_delayed_total":         "7",
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %q, want %q", name, got[name], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d samples, want %d: %v", len(got), len(want), got)
	}
}

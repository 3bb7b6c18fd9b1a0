// Prometheus text-format exposition for the substrate-neutral ledgers.
// The management daemon's /metrics endpoint writes through these helpers so
// every counter the simulators report — Traffic, node protocol events,
// fault-layer decisions — is scrapeable from a live node, with names fixed
// here in one place (README "Management API" documents them).
package metrics

import (
	"io"
	"strconv"
)

// PromWriter builds an exposition in the Prometheus text format (version
// 0.0.4): a HELP line, a TYPE line, and the sample per metric. Every sample
// is formatted with strconv into one buffer, and Flush writes the whole
// exposition to the underlying writer in one Write, so a scrape costs the
// writer and its buffer and nothing per sample.
type PromWriter struct {
	w   io.Writer
	buf []byte
}

// expositionSize is the buffer a writer starts with: room for the daemon's
// whole /metrics page (under 4 KB), which then never grows it.
const expositionSize = 4 << 10

// NewPromWriter starts an exposition for w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, expositionSize)}
}

// Counter emits a monotonically increasing sample. By convention the name
// carries the _total suffix.
func (p *PromWriter) Counter(name, help string, value int) {
	p.counter("", name, help, value)
}

// Gauge emits a point-in-time sample.
func (p *PromWriter) Gauge(name, help string, value float64) {
	p.head("", name, "gauge", help)
	p.buf = strconv.AppendFloat(p.buf, value, 'g', -1, 64)
	p.buf = append(p.buf, '\n')
}

// counter emits the counter named ns+name, with no string built for the
// name.
func (p *PromWriter) counter(ns, name, help string, value int) {
	p.head(ns, name, "counter", help)
	p.buf = strconv.AppendInt(p.buf, int64(value), 10)
	p.buf = append(p.buf, '\n')
}

// head emits the HELP and TYPE lines of the metric ns+name and its sample
// line up to the value.
func (p *PromWriter) head(ns, name, typ, help string) {
	for _, part := range [...]string{"# HELP ", ns, name, " ", help, "\n# TYPE ", ns, name, " ", typ, "\n", ns, name, " "} {
		p.buf = append(p.buf, part...)
	}
}

// Flush writes the exposition built so far in one Write, returns that
// write's error, and empties the buffer.
func (p *PromWriter) Flush() error {
	_, err := p.w.Write(p.buf)
	p.buf = p.buf[:0]
	return err
}

// WriteProm emits the traffic ledger as Prometheus counters under the given
// namespace (e.g. "sendforget" yields sendforget_traffic_sends_total ...).
// The emission order is fixed and the values are exactly the struct fields,
// so a scrape taken while the substrate is quiescent satisfies the same
// conservation identity Conserved checks.
func (t Traffic) WriteProm(p *PromWriter, ns string) {
	p.counter(ns, "_traffic_sends_total", "Attempted transmissions, before loss, routing, or marshalling.", t.Sends)
	p.counter(ns, "_traffic_losses_total", "Messages dropped by the fault layer.", t.Losses)
	p.counter(ns, "_traffic_deliveries_total", "Messages handed to a live node's receive step.", t.Deliveries)
	p.counter(ns, "_traffic_dead_letters_total", "Messages addressed to departed or unroutable nodes.", t.DeadLetters)
	p.counter(ns, "_traffic_link_losses_total", "Always 0: the fault stack has no per-link loss.", t.LinkLosses)
	p.counter(ns, "_traffic_partition_drops_total", "Losses attributed to an active partition.", t.PartitionDrops)
	p.counter(ns, "_traffic_delayed_total", "Messages routed through the delay queue.", t.Delayed)
}

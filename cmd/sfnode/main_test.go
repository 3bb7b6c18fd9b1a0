package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sendforget/internal/mgmt"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/transport"
)

func TestParseSeeds(t *testing.T) {
	seeds, err := parseSeeds("1, 2,3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 || seeds[0] != 1 || seeds[2] != 3 {
		t.Errorf("parseSeeds = %v", seeds)
	}
	if _, err := parseSeeds("", 0); err == nil {
		t.Error("accepted empty seeds")
	}
	if _, err := parseSeeds("1,x", 0); err == nil {
		t.Error("accepted non-numeric seed")
	}
	if _, err := parseSeeds("1,2,1", 0); err == nil {
		t.Error("accepted duplicate seed")
	}
	if _, err := parseSeeds("1,2", 2); err == nil {
		t.Error("accepted the node's own id as a seed")
	}
	// Ids that only look valid after a conversion to the 32-bit peer.ID:
	// 1<<32 + 1 is node 1, 1<<32 + 2 is this node, -1 is peer.Nil.
	for _, tc := range []struct{ seeds, token string }{
		{"4294967297,3", "4294967297"},
		{"1,4294967298", "4294967298"},
		{"1,4294967297", "4294967297"},
		{"-1,3", "-1"},
		{"1, 2147483648", "2147483648"},
		{"1,-4294967295", "-4294967295"},
	} {
		ids, err := parseSeeds(tc.seeds, 2)
		if err == nil {
			t.Errorf("parseSeeds(%q) = %v, want an error naming %s", tc.seeds, ids, tc.token)
		} else if !strings.Contains(err.Error(), strconv.Quote(tc.token)) && !strings.Contains(err.Error(), strconv.Quote(" "+tc.token)) {
			t.Errorf("parseSeeds(%q): error %q does not name the offending token %s", tc.seeds, err, tc.token)
		}
	}
	if ids, err := parseSeeds("2147483647,0", 2); err != nil || len(ids) != 2 || ids[0] != math.MaxInt32 || ids[1] != 0 {
		t.Errorf("parseSeeds at the ends of the id range = %v, %v", ids, err)
	}
}

// FuzzParseSeeds holds the -seeds parser to its contract on arbitrary flag
// values: no panic, and every id it accepts is a non-negative node id that
// the 32-bit conversion left unchanged — the list it returns names the same
// numbers the operator typed, none of them the node itself, none twice.
func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{"1,2,3", "1, 2,3", "", ",", "1,,2", "4294967297,2", "-1", "0x10", "1e3", "2147483647", "2147483648", "+5,5", "007,7", " 9 ", "9223372036854775808"} {
		f.Add(s, 0)
		f.Add(s, 2147483647)
	}
	f.Fuzz(func(t *testing.T, s string, self int) {
		if self < 0 || self > math.MaxInt32 {
			return
		}
		ids, err := parseSeeds(s, peer.ID(self))
		if err != nil {
			return
		}
		parts := strings.Split(s, ",")
		if len(ids) != len(parts) {
			t.Fatalf("parseSeeds(%q) = %v: %d ids from %d entries", s, ids, len(ids), len(parts))
		}
		seen := map[peer.ID]bool{}
		for i, id := range ids {
			v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
			if err != nil || int(int32(v)) != v || v < 0 || peer.ID(v) != id {
				t.Fatalf("parseSeeds(%q) accepted entry %q as id %d", s, parts[i], id)
			}
			if id == peer.ID(self) || seen[id] {
				t.Fatalf("parseSeeds(%q, self %d) = %v: self or a duplicate got through", s, self, ids)
			}
			seen[id] = true
		}
	})
}

func TestAddPeers(t *testing.T) {
	ep, err := transport.NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := addPeers(ep, "1=127.0.0.1:9000, 2=127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if err := addPeers(ep, ""); err == nil {
		t.Error("accepted empty peers")
	}
	if err := addPeers(ep, "nokv"); err == nil {
		t.Error("accepted malformed entry")
	}
	if err := addPeers(ep, "x=127.0.0.1:9000"); err == nil {
		t.Error("accepted non-numeric id")
	}
	if err := addPeers(ep, "1=bad::addr::x"); err == nil {
		t.Error("accepted bad address")
	}
	// 1<<32 + 1 must not overwrite peer 1's directory entry, and -1 is not a
	// node.
	for _, spec := range []string{"4294967297=127.0.0.1:9009", "-1=127.0.0.1:9009", "2147483648=127.0.0.1:9009"} {
		err := addPeers(ep, spec)
		if id := spec[:strings.Index(spec, "=")]; err == nil || !strings.Contains(err.Error(), id) {
			t.Errorf("addPeers(%q) = %v, want an error naming %s", spec, err, id)
		}
	}
	if n := ep.KnownPeers(); n != 2 {
		t.Errorf("%d peers in the directory after the rejected entries, want the 2 added first", n)
	}
}

// runInTest invokes run with a background context and discarded output,
// asserting it terminates.
func runInTest(t *testing.T, ctx context.Context, args []string) int {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, io.Discard, io.Discard) }()
	select {
	case code := <-done:
		return code
	case <-time.After(10 * time.Second):
		t.Fatal("run did not terminate")
		return -1
	}
}

func TestRunForDuration(t *testing.T) {
	code := runInTest(t, context.Background(), []string{
		"-id", "0",
		"-listen", "127.0.0.1:0",
		"-peers", "1=127.0.0.1:19999",
		"-seeds", "1,2",
		"-period", "5ms",
		"-report", "20ms",
		"-duration", "80ms",
	})
	if code != 0 {
		t.Errorf("run exit = %d", code)
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-bogus"}},
		{"missing seeds", []string{"-listen", "127.0.0.1:0"}},
		{"missing peers", []string{"-listen", "127.0.0.1:0", "-seeds", "1,2"}},
		{"odd s", []string{"-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19998", "-s", "7"}},
		{"unknown protocol", []string{"-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19998", "-protocol", "nosuch"}},
		{"duplicate seeds", []string{"-listen", "127.0.0.1:0", "-seeds", "1,1", "-peers", "1=127.0.0.1:19998"}},
		{"self seed", []string{"-id", "2", "-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19998"}},
		{"loss without local", []string{"-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19998", "-loss", "0.1"}},
		{"engine without local", []string{"-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19998", "-engine", "sharded"}},
		{"bad engine with local", []string{"-local", "10", "-engine", "nosuch"}},
	}
	for _, tc := range cases {
		if code := runInTest(t, context.Background(), tc.args); code != 2 {
			t.Errorf("%s: exit = %d, want 2", tc.name, code)
		}
	}
}

// TestRunRejectsUnusableFlagValues: an interval or a size no run can use is a
// usage error — exit 2 and one line naming the flag and the value — before a
// socket or an engine exists (nothing is logged). Without the check -report 0
// and -period -1s panic in a ticker once the daemon is up, a UDP node runs on
// a period it does not report, and -local -5 is answered with "-seeds is
// required".
func TestRunRejectsUnusableFlagValues(t *testing.T) {
	udp := []string{"-id", "1", "-listen", "127.0.0.1:0", "-seeds", "2,3", "-peers", "2=127.0.0.1:19995,3=127.0.0.1:19994", "-duration", "50ms"}
	local := []string{"-local", "10", "-duration", "50ms"}
	cases := []struct {
		name        string
		args        []string
		flag, value string
	}{
		{"local report 0", append(local[:len(local):len(local)], "-report", "0"), "-report", "0s"},
		{"udp report negative", append(udp[:len(udp):len(udp)], "-report", "-1s"), "-report", "-1s"},
		{"udp period 0", append(udp[:len(udp):len(udp)], "-period", "0"), "-period", "0s"},
		{"udp period negative", append(udp[:len(udp):len(udp)], "-period", "-1s"), "-period", "-1s"},
		{"local period 0", append(local[:len(local):len(local)], "-period", "0"), "-period", "0s"},
		{"local duration negative", []string{"-local", "10", "-duration", "-1s"}, "-duration", "-1s"},
		{"local negative", []string{"-local", "-5"}, "-local", "-5"},
		{"pprof without mgmt", append(local[:len(local):len(local)], "-pprof"), "-pprof", "true"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.flag+" "+tc.value) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line naming %s %s", tc.name, code, msg, tc.flag, tc.value)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: the daemon came up before the flags were refused: %s", tc.name, stdout.String())
		}
	}
}

// TestRunFlagMatrix: every bring-up failure is a usage error, exit 2 — a view
// size or threshold the protocol refuses, or a -dl it would ignore, in both
// modes; a -listen or -advertise that does not parse; a -mgmt address already
// taken, in both modes. A refused -dl is one stderr line naming the flag.
func TestRunFlagMatrix(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	udp := []string{"-listen", "127.0.0.1:0", "-seeds", "1,2", "-peers", "1=127.0.0.1:19993", "-duration", "50ms"}
	local := []string{"-local", "10", "-duration", "50ms"}
	type tc struct {
		args      []string
		dlIgnored bool // the protocol has no -dl: one line naming it
	}
	cases := []tc{
		{args: append(slices.Clone(udp), "-listen", "nohost")},
		{args: append(slices.Clone(udp), "-listen", "127.0.0.1:99999")},
		{args: append(slices.Clone(udp), "-advertise", "bad")},
		{args: append(slices.Clone(udp), "-advertise", "10.0.0.1:abc")},
	}
	for _, mode := range [][]string{udp, local} {
		for _, c := range []tc{
			{args: []string{"-s", "7"}},
			{args: []string{"-dl", "3"}},
			{args: []string{"-protocol", "sfopt", "-s", "8", "-dl", "4"}},
			{args: []string{"-protocol", "shuffle", "-s", "1"}},
			{args: []string{"-protocol", "flipper", "-s", "1"}},
			{args: []string{"-protocol", "pushpull", "-s", "0"}},
			{args: []string{"-protocol", "shuffle", "-dl", "2"}, dlIgnored: true},
			{args: []string{"-protocol", "flipper", "-dl", "4"}, dlIgnored: true},
			{args: []string{"-protocol", "pushpull", "-dl", "0"}, dlIgnored: true},
			{args: []string{"-mgmt", taken.Addr().String()}},
		} {
			cases = append(cases, tc{append(slices.Clone(mode), c.args...), c.dlIgnored})
		}
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		code := run(context.Background(), c.args, io.Discard, &stderr)
		msg := stderr.String()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, msg)
		}
		if c.dlIgnored && (strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-dl ")) {
			t.Errorf("%v: stderr %q, want one line naming -dl", c.args, msg)
		}
	}
}

// TestRunRejectsNaNLoss: a NaN -loss is refused like any rate outside [0,1],
// exit 2 with nothing logged. NaN fails every comparison, so a check written
// as "p < 0 || p > 1" passes it, and the daemon would run with no loss at all
// and a /config it cannot encode.
func TestRunRejectsNaNLoss(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-local", "20", "-loss", "NaN", "-duration", "50ms"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "NaN") {
		t.Errorf("exit %d, stderr %q; want exit 2 naming NaN", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("the daemon came up on a NaN loss rate: %s", stdout.String())
	}
}

// TestRunLocalOnlyFlagDefaults guards the flag matrix from the other side:
// the -engine and -loss *defaults* must not trip the rejection when the
// flags are not set explicitly.
func TestRunLocalOnlyFlagDefaults(t *testing.T) {
	code := runInTest(t, context.Background(), []string{
		"-listen", "127.0.0.1:0",
		"-peers", "1=127.0.0.1:19996",
		"-seeds", "1,2",
		"-period", "5ms", "-report", "50ms", "-duration", "30ms",
	})
	if code != 0 {
		t.Errorf("defaults-only run exit = %d, want 0", code)
	}
}

func TestNewCoreAllProtocols(t *testing.T) {
	for _, name := range []string{"sf", "sfopt", "shuffle", "flipper", "pushpull"} {
		core, err := newCore(name, 8, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if core.ViewSize() != 8 {
			t.Errorf("%s: view size = %d, want 8", name, core.ViewSize())
		}
	}
	if _, err := newCore("nosuch", 8, 2); err == nil {
		t.Error("accepted unknown protocol")
	}
}

func TestRunForDurationShuffle(t *testing.T) {
	// The runtime node runs the request/reply baselines too.
	code := runInTest(t, context.Background(), []string{
		"-id", "0",
		"-protocol", "shuffle",
		"-listen", "127.0.0.1:0",
		"-peers", "1=127.0.0.1:19997",
		"-seeds", "1,2",
		"-period", "5ms",
		"-report", "20ms",
		"-duration", "80ms",
	})
	if code != 0 {
		t.Errorf("run exit = %d", code)
	}
}

// hookMgmtAddr reroutes the mgmtStarted hook to a channel for the duration
// of one test. Tests using it must not run in parallel.
func hookMgmtAddr(t *testing.T) <-chan string {
	t.Helper()
	ch := make(chan string, 1)
	prev := mgmtStarted
	mgmtStarted = func(addr string) { ch <- addr }
	t.Cleanup(func() { mgmtStarted = prev })
	return ch
}

// waitMgmtAddr receives the bound management address or fails the test.
func waitMgmtAddr(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case addr := <-ch:
		return addr
	case <-time.After(5 * time.Second):
		t.Fatal("management server did not start")
		return ""
	}
}

// TestRunGracefulShutdownUDP boots a UDP node with the management API, hits
// /health and /metrics, then cancels the signal context and asserts a clean
// exit — the graceful-shutdown path end to end (run under -race in CI).
func TestRunGracefulShutdownUDP(t *testing.T) {
	addrCh := hookMgmtAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, w: &out}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-id", "0",
			"-listen", "127.0.0.1:0",
			"-peers", "1=127.0.0.1:19995",
			"-seeds", "1,2",
			"-period", "5ms",
			"-report", "1h",
			"-mgmt", "127.0.0.1:0",
		}, w, w)
	}()
	base := "http://" + waitMgmtAddr(t, addrCh)

	resp, err := http.Get(base + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Mode   string `json:"mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Mode != "udp" {
		t.Errorf("health = %+v", health)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"sendforget_traffic_sends_total", "sendforget_node_ticks_total", "sendforget_up 1"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("run exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down after signal")
	}
	// The mgmt listener is down once run returns.
	if _, err := http.Get(base + "/health"); err == nil {
		t.Error("management server still serving after shutdown")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(out.String(), "leaving on signal") {
		t.Error("shutdown not logged")
	}
	// The UDP exit runs the shared shutdown routine: a final report after
	// the invariant audit.
	if !strings.Contains(out.String(), "overlay status") {
		t.Error("no final report on the UDP exit path")
	}
}

// TestRunUDPPeriodReload: a UDP node is ticked by the run loop's ticker, so
// POST /config retunes its gossip period live — from an hour, which no test
// outlasts, to 2ms, after which /health's rounds advance.
func TestRunUDPPeriodReload(t *testing.T) {
	addrCh := hookMgmtAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-id", "0",
			"-listen", "127.0.0.1:0",
			"-peers", "1=127.0.0.1:19994",
			"-seeds", "1,2",
			"-period", "1h",
			"-report", "1h",
			"-mgmt", "127.0.0.1:0",
		}, io.Discard, io.Discard)
	}()
	base := "http://" + waitMgmtAddr(t, addrCh)
	rounds := func() int64 {
		t.Helper()
		resp, err := http.Get(base + "/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Rounds int64 `json:"rounds"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return health.Rounds
	}
	if r := rounds(); r != 0 {
		t.Fatalf("rounds = %d before the reload, at a period of an hour", r)
	}
	resp, err := http.Post(base+"/config", "application/json", strings.NewReader(`{"period":"2ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"period":"2ms"`) {
		t.Fatalf("POST /config = %d %s, want 200 reporting the 2ms period", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rounds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no round within 5s of the period reload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("run exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down after signal")
	}
}

// auditFails is a backend whose shutdown audit finds a broken view.
type auditFails struct{ mgmt.Backend }

func (auditFails) Status() mgmt.Status { return mgmt.Status{} }
func (auditFails) Drain() error        { return errors.New("view invariant violated") }

// TestServeFailedDrainIsExitCode: every way out of the run loop runs Drain,
// and its verdict is the exit code.
func TestServeFailedDrainIsExitCode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	d := &daemon{backend: auditFails{}, tick: func() {}, overlay: func() []any { return nil }}
	code := serve(ctx, d, config{period: time.Hour, report: time.Hour}, slog.New(slog.NewTextHandler(io.Discard, nil)), &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "view invariant violated") {
		t.Errorf("serve = %d, stderr %q; want 1 and the audit error", code, stderr.String())
	}
}

// TestRunLocalSignalPathDrains is the regression test for the shutdown bug:
// the signal exit used to skip DrainDelayed + CheckInvariants. Both exits now
// share one shutdown routine, so a signalled run must still log the final
// drained status (pending=0) before returning 0.
func TestRunLocalSignalPathDrains(t *testing.T) {
	addrCh := hookMgmtAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, w: &out}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-local", "30",
			"-loss", "0.3",
			"-period", "2ms",
			"-report", "1h",
			"-seed", "7",
			"-mgmt", "127.0.0.1:0",
		}, w, w)
	}()
	base := "http://" + waitMgmtAddr(t, addrCh)

	// Let some rounds happen (0.3 loss + delay queue leaves work in flight),
	// then deliver the "signal".
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(base + "/health")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Rounds int64 `json:"rounds"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Rounds >= 10 {
			break
		}
		if attempt > 1000 {
			t.Fatal("cluster never reached 10 rounds")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("run exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runLocal did not shut down after signal")
	}
	mu.Lock()
	logs := out.String()
	mu.Unlock()
	if !strings.Contains(logs, "reason=\"signal") {
		t.Errorf("signal shutdown not logged:\n%s", logs)
	}
	// The drained final status is the proof the signal path ran the shared
	// shutdown routine: pending must have been emptied and reported.
	last := logs[strings.LastIndex(logs, "overlay status"):]
	if !strings.Contains(last, "pending=0") {
		t.Errorf("final status not drained:\n%s", last)
	}
}

// TestRunLocalLeaveViaAPI exercises the other daemon exit: a bare POST
// /leave drains the cluster and shuts the whole process down with code 0.
func TestRunLocalLeaveViaAPI(t *testing.T) {
	addrCh := hookMgmtAddr(t)
	var out bytes.Buffer
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, w: &out}
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-local", "20",
			"-period", "2ms",
			"-report", "1h",
			"-seed", "11",
			"-mgmt", "127.0.0.1:0",
		}, w, w)
	}()
	base := "http://" + waitMgmtAddr(t, addrCh)

	resp, err := http.Post(base+"/leave", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare /leave status = %d", resp.StatusCode)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("run exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after bare /leave")
	}
}

// TestRunPprof: -pprof mounts the profiles on the -mgmt listener, beside the
// management API, and the daemon still leaves through a bare POST /leave.
func TestRunPprof(t *testing.T) {
	addrCh := hookMgmtAddr(t)
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-local", "20", "-period", "2ms", "-report", "1h", "-seed", "11",
			"-mgmt", "127.0.0.1:0", "-pprof",
		}, io.Discard, io.Discard)
	}()
	base := "http://" + waitMgmtAddr(t, addrCh)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/health"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(base+"/leave", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("run exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after bare /leave")
	}
}

// lockedWriter serializes writes between run's logger and test assertions.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRejectLocalOnlyFlags covers the -local flag matrix at the unit level.
func TestRejectLocalOnlyFlags(t *testing.T) {
	matrix := []struct {
		args    []string
		wantErr bool
	}{
		{[]string{}, false},
		{[]string{"-loss", "0.5"}, true},
		{[]string{"-engine", "seq"}, true},
		{[]string{"-loss", "0.5", "-engine", "seq"}, true},
		{[]string{"-s", "10"}, false},
	}
	for _, tc := range matrix {
		fs := flag.NewFlagSet("sfnode-test", flag.ContinueOnError)
		fs.Float64("loss", 0, "")
		fs.String("engine", "cluster", "")
		fs.Int("s", 8, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := rejectLocalOnlyFlags(fs)
		if (err != nil) != tc.wantErr {
			t.Errorf("rejectLocalOnlyFlags(%v) err = %v, wantErr = %v", tc.args, err, tc.wantErr)
		}
	}
}

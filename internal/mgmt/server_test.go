package mgmt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	gort "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
)

// newTestLocal boots a managed in-process cluster and its server, whose run
// loop period is 250ms and reports reloads to onPeriod, returning the
// backend, the substrate, and the server's base URL.
func newTestLocal(t *testing.T, n int, lossRate float64, onPeriod func(time.Duration)) (*Local, runtime.Substrate, *Server, string) {
	t.Helper()
	backend, sub := newTestBackend(t, n, lossRate)
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend, Period: 250 * time.Millisecond, OnPeriod: onPeriod})
	if err != nil {
		t.Fatal(err)
	}
	startTestServer(t, srv)
	return backend, sub, srv, "http://" + srv.Addr()
}

// newTestBackend builds a managed in-process cluster without a server.
func newTestBackend(t *testing.T, n int, lossRate float64) (*Local, runtime.Substrate) {
	t.Helper()
	return newTestBackendOn(t, runtime.Config{Engine: runtime.EngineCluster, N: n, Loss: lossRate})
}

// newTestBackendOn is newTestBackend on any engine and fault stack; cfg
// supplies Engine, N and Loss or Conditions.
func newTestBackendOn(t testing.TB, cfg runtime.Config) (*Local, runtime.Substrate) {
	t.Helper()
	cfg.NewCore = func() (protocol.StepCore, error) { return sendforget.NewCore(8, 2) }
	cfg.Seed = 42
	sub, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	backend, err := NewLocal(LocalOptions{
		Sub: sub, Protocol: "sf", Engine: string(cfg.Engine), N: cfg.N, S: 8, DL: 2,
		Seed: 42, Loss: cfg.Loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	return backend, sub
}

// startTestServer starts srv and shuts it down with the test.
func startTestServer(t *testing.T, srv *Server) {
	t.Helper()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// The client may hold a connection it dialed but never sent a request
		// on; the server counts it as busy for five seconds and Shutdown would
		// wait that long for it.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
}

// getJSON decodes a GET response body into out, requiring the given status.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// postJSON posts a JSON body, requiring the given status, decoding into out.
func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s %s = %d, want %d (body %s)", url, buf, resp.StatusCode, wantStatus, b)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// scrapeProm fetches /metrics and parses "name value" sample lines.
func scrapeProm(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
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

func TestHealthAndView(t *testing.T) {
	backend, _, _, base := newTestLocal(t, 8, 0, nil)
	var h healthResponse
	getJSON(t, base+"/health", http.StatusOK, &h)
	if h.Status != "ok" || h.Mode != "local" || h.Protocol != "sf" || h.N != 8 {
		t.Errorf("health = %+v", h)
	}
	backend.Tick()
	getJSON(t, base+"/health", http.StatusOK, &h)
	if h.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", h.Rounds)
	}

	var v viewResponse
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.N != 8 || v.Live != 8 || len(v.Views) != 8 {
		t.Errorf("view = n=%d live=%d len=%d", v.N, v.Live, len(v.Views))
	}
	for i, nv := range v.Views {
		if nv.ID != i {
			t.Errorf("views not ordered by id: %d at %d", nv.ID, i)
		}
		if len(nv.View) == 0 {
			t.Errorf("node %d has empty view", nv.ID)
		}
	}
	getJSON(t, base+"/view?id=3", http.StatusOK, &v)
	if len(v.Views) != 1 || v.Views[0].ID != 3 {
		t.Errorf("filtered view = %+v", v.Views)
	}
	// The whole value must be a decimal id: no trailing junk, no 0x prefix.
	for _, bad := range []string{"zzz", "3abc", "0x10", "3.0", "+-3", "%203"} {
		getJSON(t, base+"/view?id="+bad, http.StatusBadRequest, nil)
	}
	getJSON(t, base+"/view?id=99", http.StatusNotFound, nil)
}

// TestOneNodeViewCopiesNoOtherView holds GET /view?id's backend read to a
// cost that does not grow with the cluster: the bytes Views(&id) allocates
// at n = 20,000 stay within twice those at n = 2,000 (a copy of every view
// would be ten times).
func TestOneNodeViewCopiesNoOtherView(t *testing.T) {
	perCall := func(n int) uint64 {
		backend, _ := newTestBackendOn(t, runtime.Config{Engine: runtime.EngineSharded, N: n})
		id := n / 2
		if nv, live := backend.Views(&id); len(nv) != 1 || nv[0].ID != id || live != n {
			t.Fatalf("n=%d: Views(&%d) = %+v, %d live", n, id, nv, live)
		}
		const calls = 50
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			backend.Views(&id)
		}
		gort.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, large := perCall(2000), perCall(20000)
	if large > 2*small {
		t.Errorf("Views(&id) allocates %d B at n=20000 against %d B at n=2000", large, small)
	}
}

func TestJoinLeaveValidation(t *testing.T) {
	backend, _, _, base := newTestLocal(t, 8, 0, nil)
	id := func(v int) *int { return &v }
	postJSON(t, base+"/join", JoinRequest{}, http.StatusBadRequest, nil)
	postJSON(t, base+"/join", JoinRequest{ID: id(3)}, http.StatusBadRequest, nil)
	// Self-seeding is the bug class parseSeeds now rejects; the API
	// rejects it too.
	postJSON(t, base+"/join", JoinRequest{ID: id(3), Seeds: []int{3, 4}}, http.StatusBadRequest, nil)
	// Joining an active slot conflicts.
	postJSON(t, base+"/join", JoinRequest{ID: id(3), Seeds: []int{1, 2}}, http.StatusBadRequest, nil)

	postJSON(t, base+"/leave", LeaveRequest{ID: id(99)}, http.StatusBadRequest, nil)
	postJSON(t, base+"/leave", LeaveRequest{ID: id(3)}, http.StatusOK, nil)
	postJSON(t, base+"/leave", LeaveRequest{ID: id(3)}, http.StatusBadRequest, nil) // already gone
	var v viewResponse
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != 7 {
		t.Errorf("live after leave = %d, want 7", v.Live)
	}
	// A seed outside [0, n) would be gossiped to for ever (and crashes the
	// sharded engine's router): refused, nothing joined, rounds go on. So
	// are JSON integers past int32, which an unchecked conversion to peer.ID
	// wraps to seeds 1 and 2, or to node 3.
	for _, req := range []JoinRequest{
		{ID: id(3), Seeds: []int{1048576, 1}},
		{ID: id(3), Seeds: []int{1, 8}},
		{ID: id(3), Seeds: []int{1, -7}},
		{ID: id(3), Seeds: []int{1<<32 + 1, 1<<32 + 2}},
		{ID: id(1<<32 + 3), Seeds: []int{1, 2}},
		{ID: id(-1<<32 + 3), Seeds: []int{1, 2}},
	} {
		postJSON(t, base+"/join", req, http.StatusBadRequest, nil)
	}
	for i := 0; i < 3; i++ {
		backend.Tick()
	}
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != 7 {
		t.Errorf("live after rejected joins = %d, want 7", v.Live)
	}
	postJSON(t, base+"/join", JoinRequest{ID: id(3), Seeds: []int{1, 2}}, http.StatusOK, nil)
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != 8 {
		t.Errorf("live after rejoin = %d, want 8", v.Live)
	}
	// Method matrix: mutating endpoints reject GET.
	getJSON(t, base+"/join", http.StatusMethodNotAllowed, nil)
	getJSON(t, base+"/leave", http.StatusMethodNotAllowed, nil)
}

// TestOversizeBodyRejected: every POST endpoint bounds its body. A body over
// the limit is answered 413 and changes nothing — here a join whose seed
// list would otherwise be valid — while a body just under it still decodes.
func TestOversizeBodyRejected(t *testing.T) {
	_, _, _, base := newTestLocal(t, 8, 0, nil)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	// JSON allows whitespace between tokens: pad a well-formed request.
	padded := func(body string, size int) string {
		return body[:len(body)-1] + strings.Repeat(" ", size-len(body)) + body[len(body)-1:]
	}
	postJSON(t, base+"/leave", LeaveRequest{ID: func() *int { v := 3; return &v }()}, http.StatusOK, nil)
	join := `{"id":3,"seeds":[1,2]}`
	for _, path := range []string{"/join", "/leave", "/config"} {
		if got := post(path, padded(join, maxBodyBytes+1)); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes = %d, want 413", path, maxBodyBytes+1, got)
		}
	}
	var v viewResponse
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != 7 {
		t.Fatalf("live = %d after an oversize join, want 7: the request was applied", v.Live)
	}
	if got := post("/join", padded(join, maxBodyBytes)); got != http.StatusOK {
		t.Errorf("POST /join with exactly %d bytes = %d, want 200", maxBodyBytes, got)
	}
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != 8 {
		t.Errorf("live = %d after the in-limit join, want 8", v.Live)
	}
}

// TestTrailingBodyRejected: a request body is exactly one JSON value. A
// second value or junk after it used to be ignored, silently applying the
// first half of what the operator sent.
func TestTrailingBodyRejected(t *testing.T) {
	_, _, _, base := newTestLocal(t, 8, 0.25, nil)
	for _, body := range []string{
		`{"loss":0.1}{"period":"1ms"}`,
		`{"loss":0.1} junk`,
		`{"loss":0.1} 7`,
	} {
		resp, err := http.Post(base+"/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /config %q = %d, want 400", body, resp.StatusCode)
		}
	}
	var cfg configResponse
	getJSON(t, base+"/config", http.StatusOK, &cfg)
	if cfg.Loss != 0.25 {
		t.Errorf("loss = %v after rejected requests, want 0.25: half a request was applied", cfg.Loss)
	}
	// Trailing whitespace is still one value.
	resp, err := http.Post(base+"/config", "application/json", strings.NewReader("{\"loss\":0.1}\n \t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /config with trailing whitespace = %d, want 200", resp.StatusCode)
	}
}

func TestStalledBodyClosesConnection(t *testing.T) {
	// A client that sends its headers and then stalls mid-body must not pin
	// a handler goroutine and a connection for ever: the read limit closes
	// the connection. New sets both limits; the test shortens the read one.
	backend, _ := newTestBackend(t, 4, 0)
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if srv.srv.ReadTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Fatalf("New left ReadTimeout %v, IdleTimeout %v", srv.srv.ReadTimeout, srv.srv.IdleTimeout)
	}
	srv.srv.ReadTimeout = 100 * time.Millisecond
	startTestServer(t, srv)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const body = `{"loss":0.25}`
	fmt.Fprintf(conn, "POST /config HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2])
	// The server may answer 400 before it hangs up; what matters is that the
	// read below ends in EOF and not in this deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
	if got := backend.Status().Loss; got != 0 {
		t.Errorf("half a body changed the loss rate to %v", got)
	}
}

func TestConfigReload(t *testing.T) {
	var reloaded atomic.Int64
	var calls atomic.Int32
	backend, sub, _, base := newTestLocal(t, 8, 0, func(d time.Duration) {
		reloaded.Store(int64(d))
		calls.Add(1)
	})
	var cfg configResponse
	getJSON(t, base+"/config", http.StatusOK, &cfg)
	if cfg.Period != "250ms" || cfg.Loss != 0 || cfg.S != 8 || cfg.DL != 2 {
		t.Errorf("config = %+v", cfg)
	}
	period := "5ms"
	lossRate := 1.0
	postJSON(t, base+"/config", ConfigUpdate{Period: &period, Loss: &lossRate}, http.StatusOK, &cfg)
	if cfg.Period != "5ms" || cfg.Loss != 1 {
		t.Errorf("config after reload = %+v", cfg)
	}
	if got := time.Duration(reloaded.Load()); got != 5*time.Millisecond || calls.Load() != 1 {
		t.Errorf("OnPeriod got %v in %d calls, want 5ms once", got, calls.Load())
	}
	if got := sub.Conditions().Rate(); got != 1 {
		t.Errorf("conditions rate = %v, want 1 (live loss reload)", got)
	}
	// Certain loss now provably drops: tick until something is sent (early
	// S&F actions can all be self-loop transformations) and check the
	// ledger.
	for i := 0; i < 100 && backend.Status().Traffic.Sends == 0; i++ {
		backend.Tick()
	}
	tr := backend.Status().Traffic
	if tr.Sends == 0 || tr.Losses != tr.Sends {
		t.Errorf("traffic under loss=1: %+v, want all sends lost", tr)
	}

	// All or nothing: a bad field, alone or beside a good one, applies
	// neither.
	bad, good := "-5ms", "7ms"
	badLoss, goodLoss := 1.5, 0.5
	for _, upd := range []ConfigUpdate{
		{Period: &bad},
		{Loss: &badLoss},
		{Period: &bad, Loss: &goodLoss},
		{Period: &good, Loss: &badLoss},
	} {
		postJSON(t, base+"/config", upd, http.StatusBadRequest, nil)
	}
	getJSON(t, base+"/config", http.StatusOK, &cfg)
	if cfg.Period != "5ms" || cfg.Loss != 1 || calls.Load() != 1 || sub.Conditions().Rate() != 1 {
		t.Errorf("config after rejected reloads = %+v (%d OnPeriod calls, rate %v), want 5ms and 1 untouched",
			cfg, calls.Load(), sub.Conditions().Rate())
	}
	// Unknown fields fail loudly rather than silently applying nothing.
	resp, err := http.Post(base+"/config", "application/json", strings.NewReader(`{"perid":"5ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp.StatusCode)
	}
}

// TestConfigWithoutPeriod: a server built with neither Period nor OnPeriod
// (a harness that drives the backend itself) reports "0s" and still takes a
// reload.
func TestConfigWithoutPeriod(t *testing.T) {
	backend, _ := newTestBackend(t, 4, 0)
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	startTestServer(t, srv)
	base := "http://" + srv.Addr()
	var cfg configResponse
	getJSON(t, base+"/config", http.StatusOK, &cfg)
	if cfg.Period != "0s" {
		t.Errorf("period = %q, want 0s", cfg.Period)
	}
	period, lossRate := "3ms", 0.25
	postJSON(t, base+"/config", ConfigUpdate{Period: &period, Loss: &lossRate}, http.StatusOK, &cfg)
	if cfg.Period != "3ms" || cfg.Loss != 0.25 {
		t.Errorf("config after reload = %+v", cfg)
	}
}

func TestMetricsMatchTrafficExactly(t *testing.T) {
	backend, sub, _, base := newTestLocal(t, 16, 0.3, nil)
	for i := 0; i < 20; i++ {
		backend.Tick()
	}
	if err := backend.Drain(); err != nil {
		t.Fatal(err)
	}
	got := scrapeProm(t, base)
	tr := sub.Traffic()
	if !tr.Conserved() {
		t.Fatalf("traffic not conserved after drain: %+v", tr)
	}
	want := map[string]int{
		"sendforget_traffic_sends_total":           tr.Sends,
		"sendforget_traffic_losses_total":          tr.Losses,
		"sendforget_traffic_deliveries_total":      tr.Deliveries,
		"sendforget_traffic_dead_letters_total":    tr.DeadLetters,
		"sendforget_traffic_link_losses_total":     tr.LinkLosses,
		"sendforget_traffic_partition_drops_total": tr.PartitionDrops,
		"sendforget_traffic_delayed_total":         tr.Delayed,
	}
	st := backend.Status()
	if st.Faults == nil {
		t.Fatal("local backend reports no fault counters")
	}
	want["sendforget_faults_decisions_total"] = tr.Sends
	want["sendforget_faults_model_drops_total"] = tr.Losses - tr.LinkLosses - tr.PartitionDrops
	c := st.Counters
	want["sendforget_node_ticks_total"] = c.Ticks
	want["sendforget_node_sends_total"] = c.Sends
	want["sendforget_node_receives_total"] = c.Receives
	want["sendforget_node_selfloops_total"] = c.SelfLoops
	for name, v := range want {
		if got[name] != fmt.Sprintf("%d", v) {
			t.Errorf("%s = %q, want %d", name, got[name], v)
		}
	}
	if tr.Sends == 0 || tr.Losses == 0 {
		t.Errorf("want nonzero sends and losses at rate 0.3, got %+v", tr)
	}
	if got["sendforget_up"] != "1" {
		t.Errorf("sendforget_up = %q", got["sendforget_up"])
	}
}

// TestMetricsGolden holds one /metrics body, byte for byte, to a file that
// is never re-captured: a seeded seq run through a partition and its heal,
// link overrides, jittered delay and a departure, scraped with messages
// still in flight, so every traffic_* and faults_* series is nonzero.
func TestMetricsGolden(t *testing.T) {
	const n = 16
	cond, err := faults.FromRate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	for id := peer.ID(0); id < n; id++ {
		cond.SetLinkLoss(id, (id+1)%n, loss.MustUniform(0.5))
	}
	backend, _ := newTestBackendOn(t, runtime.Config{Engine: runtime.EngineSeq, N: n, Conditions: cond})
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	var evens, odds []peer.ID
	for id := peer.ID(0); id < n; id++ {
		if id%2 == 0 {
			evens = append(evens, id)
		} else {
			odds = append(odds, id)
		}
	}
	tick := func(rounds int) {
		for range rounds {
			backend.Tick()
		}
	}
	tick(10)
	cond.Partition(evens, odds)
	tick(10)
	cond.Heal()
	if err := backend.Leave(3); err != nil {
		t.Fatal(err)
	}
	tick(10)
	rec := httptest.NewRecorder()
	srv.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("/metrics body differs from testdata/metrics.golden:\n%s", got)
	}
}

func TestBareLeaveDrainsAndRequestsShutdown(t *testing.T) {
	_, sub, srv, base := newTestLocal(t, 8, 0.5, nil)
	backendTickSome(srv, 5)
	postJSON(t, base+"/leave", LeaveRequest{}, http.StatusOK, nil)
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("bare /leave did not request shutdown")
	}
	if tr := sub.Traffic(); !tr.Conserved() {
		t.Errorf("traffic not conserved after bare-leave drain: %+v", tr)
	}
	// Idempotent: a second request is fine.
	srv.RequestShutdown()
}

// backendTickSome ticks the server's backend when it is a *Local.
func backendTickSome(srv *Server, n int) {
	if l, ok := srv.backend.(*Local); ok {
		for i := 0; i < n; i++ {
			l.Tick()
		}
	}
}

func TestUDPNodeBackend(t *testing.T) {
	core, err := sendforget.NewCore(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, ep, err := runtime.NewUDPNode(runtime.NodeConfig{
		ID: 0, Core: core, Seed: 7,
	}, []peer.ID{1, 2}, "127.0.0.1:0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	backend, err := NewUDPNode(UDPNodeOptions{
		Node: n, Endpoint: ep, Protocol: "sf", S: 8, DL: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	base := "http://" + srv.Addr()

	var h healthResponse
	getJSON(t, base+"/health", http.StatusOK, &h)
	if h.Mode != "udp" || h.N != 1 {
		t.Errorf("health = %+v", h)
	}
	var v viewResponse
	getJSON(t, base+"/view", http.StatusOK, &v)
	if len(v.Views) != 1 || v.Views[0].ID != 0 || len(v.Views[0].View) != 2 {
		t.Errorf("view = %+v", v.Views)
	}

	id := func(v int) *int { return &v }
	// Join = directory introduction.
	postJSON(t, base+"/join", JoinRequest{ID: id(5), Addr: "127.0.0.1:19996"}, http.StatusOK, nil)
	if got := ep.KnownPeers(); got != 1 {
		t.Errorf("known peers after join = %d, want 1", got)
	}
	postJSON(t, base+"/join", JoinRequest{ID: id(0), Addr: "127.0.0.1:19996"}, http.StatusBadRequest, nil) // self
	postJSON(t, base+"/join", JoinRequest{ID: id(6)}, http.StatusBadRequest, nil)                          // no addr
	// Past int32 the id would wrap into peer 5's directory entry.
	postJSON(t, base+"/join", JoinRequest{ID: id(1<<32 + 5), Addr: "127.0.0.1:19997"}, http.StatusBadRequest, nil)
	postJSON(t, base+"/join", JoinRequest{ID: id(1 << 32), Addr: "127.0.0.1:19997"}, http.StatusBadRequest, nil)
	if got := ep.KnownPeers(); got != 1 {
		t.Errorf("known peers after rejected joins = %d, want 1", got)
	}
	// A UDP node cannot remove peers; bare leave drains + shuts down.
	postJSON(t, base+"/leave", LeaveRequest{ID: id(5)}, http.StatusBadRequest, nil)

	// The node is ticked by hand here; a daemon ticks it from its run loop
	// (sfnode's TestRunUDPPeriodReload holds the live period reload).
	for i := 0; i < 20; i++ {
		n.Tick()
	}
	lossRate := 0.5
	postJSON(t, base+"/config", ConfigUpdate{Loss: &lossRate}, http.StatusBadRequest, nil)

	// Metrics expose the endpoint ledger.
	got := scrapeProm(t, base)
	var sends int
	if _, err := fmt.Sscanf(got["sendforget_traffic_sends_total"], "%d", &sends); err != nil {
		t.Fatalf("sends sample %q: %v", got["sendforget_traffic_sends_total"], err)
	}
	if want := ep.Counters().Sent; sends != want || sends == 0 {
		t.Errorf("sends = %d, want the endpoint's %d (nonzero)", sends, want)
	}
	if _, hasFaults := got["sendforget_faults_decisions_total"]; hasFaults {
		t.Error("udp backend exposes fault counters")
	}

	postJSON(t, base+"/leave", LeaveRequest{}, http.StatusOK, nil)
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("bare /leave did not request shutdown")
	}
}

// TestPprofMount holds Options.Pprof to what it mounts: off, /debug/pprof/
// and its profiles are 404s like any unknown path; on, they serve, and the
// management API beside them answers as before.
func TestPprofMount(t *testing.T) {
	get := func(t *testing.T, url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	backend, _ := newTestBackend(t, 8, 0)
	for _, on := range []bool{false, true} {
		srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend, Pprof: on})
		if err != nil {
			t.Fatal(err)
		}
		startTestServer(t, srv)
		base := "http://" + srv.Addr()
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
			if got := get(t, base+path); got != want {
				t.Errorf("Pprof %v: GET %s = %d, want %d", on, path, got, want)
			}
		}
		if got := get(t, base+"/health"); got != http.StatusOK {
			t.Errorf("Pprof %v: GET /health = %d, want 200", on, got)
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Options{Addr: "127.0.0.1:0"}); err == nil {
		t.Error("accepted nil backend")
	}
	if _, err := NewLocal(LocalOptions{}); err == nil {
		t.Error("accepted nil substrate")
	}
	if _, err := NewUDPNode(UDPNodeOptions{}); err == nil {
		t.Error("accepted nil node")
	}
	b := &Local{}
	if _, err := New(Options{Backend: b}); err == nil {
		t.Error("accepted empty address")
	}
	// Shutdown before Start is a no-op.
	srv, err := New(Options{Addr: "127.0.0.1:0", Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
}

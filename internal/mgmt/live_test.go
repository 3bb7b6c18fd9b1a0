package mgmt

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/runtime"
)

// delayed returns a fault stack with uniform loss and a jittered delivery
// delay, so the delay queue is never empty while the cluster ticks.
func delayed(t testing.TB, rate float64) *faults.Conditions {
	t.Helper()
	cond, err := faults.FromRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	return cond
}

// tickUntil ticks the backend in its own goroutine until the returned stop
// function is called; stop waits for the goroutine.
func tickUntil(backend *Local) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				backend.Tick()
				// Without the yield a GOMAXPROCS=1 run leaves the
				// HTTP goroutines to the 10 ms preemption tick.
				goruntime.Gosched()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestLiveScrapeIsOneSnapshot scrapes /metrics while the cluster ticks and
// holds every scrape to the identities that tie its series together. They
// only hold if all series were read at the same instant: a handler that reads
// the ledgers in separate lock holds mixes counters from different rounds.
// No churn here: the cluster engine's Counters sums live nodes only, so a
// leave legitimately breaks the first identity.
func TestLiveScrapeIsOneSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  runtime.Config
	}{
		{"no delay", runtime.Config{Engine: runtime.EngineSharded, N: 2000, Loss: 0.05}},
		{"jittered delay", runtime.Config{Engine: runtime.EngineSharded, N: 2000, Conditions: delayed(t, 0.05)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend, _ := newTestBackendOn(t, tc.cfg, nil)
			srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			startTestServer(t, srv)
			stop := tickUntil(backend)
			defer stop()
			const scrapes = 300
			mixed, pendingSeen := 0, false
			for i := 0; i < scrapes; i++ {
				raw := scrapeProm(t, "http://"+srv.Addr())
				m := func(name string) int {
					v, err := strconv.Atoi(raw["sendforget_"+name])
					if err != nil {
						t.Fatalf("%s = %q: %v", name, raw["sendforget_"+name], err)
					}
					return v
				}
				sends := m("traffic_sends_total")
				pendingSeen = pendingSeen || m("pending_messages") > 0
				if sends != m("node_sends_total")+m("node_replies_total") ||
					sends != m("faults_decisions_total") ||
					sends != m("traffic_losses_total")+m("traffic_deliveries_total")+m("traffic_dead_letters_total")+m("pending_messages") {
					mixed++
					if mixed == 1 {
						t.Logf("first mixed scrape: %v", raw)
					}
				}
			}
			if mixed > 0 {
				t.Errorf("%d of %d live scrapes mix series from different instants", mixed, scrapes)
			}
			if wantPending := tc.cfg.Conditions != nil; pendingSeen != wantPending {
				t.Errorf("pending seen = %v, want %v: the delayed run must exercise the pending term", pendingSeen, wantPending)
			}
		})
	}
}

// TestAPIHammer drives every endpoint concurrently with the tick loop on each
// engine — churn, config reloads, view and ledger reads — and then holds the
// drained cluster to the traffic identity and the view invariants. Run under
// -race it is the proof that Local's lock covers every substrate access, the
// snapshot work done outside it included.
func TestAPIHammer(t *testing.T) {
	for _, kind := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
		t.Run(string(kind), func(t *testing.T) {
			const n, iters = 64, 40
			backend, sub := newTestBackendOn(t, runtime.Config{Engine: kind, N: n, Conditions: delayed(t, 0.1), ShardSize: 16}, nil)
			srv, err := New(Options{Addr: "127.0.0.1:0", Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			startTestServer(t, srv)
			base := "http://" + srv.Addr()
			// do sends one request and reports a status outside want.
			do := func(method, path, body string, want ...int) {
				req, err := http.NewRequest(method, base+path, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				for _, w := range want {
					if resp.StatusCode == w {
						return
					}
				}
				t.Errorf("%s %s %s = %d, want one of %v", method, path, body, resp.StatusCode, want)
			}
			stop := tickUntil(backend)
			var wg sync.WaitGroup
			for _, worker := range []func(i int){
				func(i int) { // churn: this worker alone owns ids 8..15
					u := 8 + i%8
					do("POST", "/leave", fmt.Sprintf(`{"id":%d}`, u), http.StatusOK)
					do("POST", "/join", fmt.Sprintf(`{"id":%d,"seeds":[1,2]}`, u), http.StatusOK)
				},
				func(i int) {
					do("POST", "/config", fmt.Sprintf(`{"loss":%g,"period":"%dms"}`, 0.1+0.2*float64(i%2), 1+i%5), http.StatusOK)
					do("GET", "/config", "", http.StatusOK)
				},
				func(i int) {
					do("GET", fmt.Sprintf("/view?id=%d", i%16), "", http.StatusOK, http.StatusNotFound)
					do("GET", "/view", "", http.StatusOK)
				},
				func(i int) {
					do("GET", "/metrics", "", http.StatusOK)
					do("GET", "/health", "", http.StatusOK)
				},
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						worker(i)
					}
				}()
			}
			wg.Wait()
			stop()
			if err := backend.Drain(); err != nil {
				t.Error(err)
			}
			if tr := sub.Traffic(); !tr.Conserved() || tr.Sends == 0 {
				t.Errorf("traffic after the hammer and a drain: %+v", tr)
			}
			if err := sub.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if _, live := backend.Views(nil); live != n {
				t.Errorf("live = %d after balanced churn, want %d", live, n)
			}
		})
	}
}

// FuzzAPIRequests feeds arbitrary bodies to the three POST endpoints and
// arbitrary values to /view?id=. Whatever arrives, the daemon must not panic
// or answer 5xx, membership may change only when it answered 200, and the
// cluster must keep ticking with its view invariants intact.
func FuzzAPIRequests(f *testing.F) {
	for _, body := range []string{
		// JSON integers that wrap to valid ids when converted to int32.
		`{"id":3,"seeds":[4294967297,4294967298,5,4]}`,
		`{"id":4294967299,"seeds":[1,2]}`,
		`{"id":4294967299}`,
		`4294967299`,
		// Trailing junk, half-numbers, negative and 20-digit numbers.
		`{"id":3,"seeds":[1,2]} junk`,
		`{"id":3,"seeds":[1,2]}{"id":4}`,
		`12abc`,
		`-3`,
		`{"id":-3,"seeds":[1,-2]}`,
		`{"id":99999999999999999999}`,
		`99999999999999999999`,
		// Well-formed requests, so mutation starts from accepted shapes.
		`{"id":3,"seeds":[1,2]}`,
		`{"id":4}`,
		`{}`,
		``,
		`3`,
		`{"loss":0.5,"period":"1ms"}`,
		`{"loss":2}`,
		`{"period":"-1s"}`,
	} {
		for endpoint := uint8(0); endpoint < 4; endpoint++ {
			f.Add(endpoint, body)
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		backend, sub := newTestBackendOn(t, runtime.Config{Engine: runtime.EngineSeq, N: 8}, nil)
		srv, err := New(Options{Addr: "unused", Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		// One empty slot, so a join can succeed as well as fail.
		if err := backend.Leave(3); err != nil {
			t.Fatal(err)
		}
		_, before := backend.Views(nil)
		var req *http.Request
		switch endpoint % 4 {
		case 0:
			req = httptest.NewRequest("POST", "/join", strings.NewReader(body))
		case 1:
			req = httptest.NewRequest("POST", "/leave", strings.NewReader(body))
		case 2:
			req = httptest.NewRequest("POST", "/config", strings.NewReader(body))
		case 3:
			req = httptest.NewRequest("GET", "/view?id="+url.QueryEscape(body), nil)
		}
		rec := httptest.NewRecorder()
		srv.srv.Handler.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Errorf("%s %s %q = %d: %s", req.Method, req.URL.Path, body, rec.Code, rec.Body)
		}
		if _, after := backend.Views(nil); after != before && rec.Code != http.StatusOK {
			t.Errorf("%s %s %q = %d, yet live went %d -> %d", req.Method, req.URL.Path, body, rec.Code, before, after)
		}
		for i := 0; i < 3; i++ {
			backend.Tick()
		}
		if got := backend.Status().Rounds; got != 3 {
			t.Errorf("rounds = %d after three ticks", got)
		}
		if err := sub.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

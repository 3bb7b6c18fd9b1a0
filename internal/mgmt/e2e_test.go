package mgmt

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// TestE2E50NodeClusterViaAPI is the ROADMAP item 3 acceptance test: a
// 50-node in-process cluster driven entirely through the management API —
// join, leave, view queries, live config reload, drain — with /metrics
// matching the substrate's own ledgers exactly at the quiescent end.
func TestE2E50NodeClusterViaAPI(t *testing.T) {
	const n = 50
	sub, err := runtime.New(runtime.Config{
		Engine: runtime.EngineCluster,
		N:      n,
		NewCore: func() (protocol.StepCore, error) {
			return sendforget.NewCore(8, 2)
		},
		Loss: 0.05,
		Seed: 2026,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	backend, err := NewLocal(LocalOptions{
		Sub: sub, Protocol: "sf", Engine: "cluster", N: n, S: 8, DL: 2,
		Seed: 2026, Period: 100 * time.Millisecond, Loss: 0.05,
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
	// The daemon run loop is simulated by ticking between API phases.
	rounds := func(k int) {
		for i := 0; i < k; i++ {
			backend.Tick()
		}
	}
	base := "http://" + srv.Addr()
	id := func(v int) *int { return &v }

	// Phase 1: health + warm-up.
	var h healthResponse
	getJSON(t, base+"/health", http.StatusOK, &h)
	if h.Status != "ok" || h.N != n {
		t.Fatalf("health = %+v", h)
	}
	rounds(30)

	// Phase 2: churn through the API — ten nodes leave, gossip continues,
	// they rejoin seeded by live members.
	for u := 10; u < 20; u++ {
		postJSON(t, base+"/leave", LeaveRequest{ID: id(u)}, http.StatusOK, nil)
	}
	var v viewResponse
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != n-10 {
		t.Fatalf("live after leaves = %d, want %d", v.Live, n-10)
	}
	rounds(30)
	for u := 10; u < 20; u++ {
		postJSON(t, base+"/join", JoinRequest{ID: id(u), Seeds: []int{(u + 25) % n, (u + 26) % n}}, http.StatusOK, nil)
	}
	getJSON(t, base+"/view", http.StatusOK, &v)
	if v.Live != n {
		t.Fatalf("live after rejoins = %d, want %d", v.Live, n)
	}
	rounds(30)

	// Phase 3: live config reload — crank loss up, then back down; the
	// fault layer must follow immediately.
	for _, rate := range []float64{0.5, 0.05} {
		r := rate
		var cfg Config
		postJSON(t, base+"/config", ConfigUpdate{Loss: &r}, http.StatusOK, &cfg)
		if cfg.Loss != rate {
			t.Fatalf("loss after reload = %g, want %g", cfg.Loss, rate)
		}
		if got := sub.Conditions().Rate(); got != rate {
			t.Fatalf("conditions rate = %g, want %g", got, rate)
		}
		rounds(20)
	}
	period := "50ms"
	postJSON(t, base+"/config", ConfigUpdate{Period: &period}, http.StatusOK, nil)

	// Phase 4: drain via bare /leave — in-flight messages settle,
	// invariants are checked, shutdown is requested.
	postJSON(t, base+"/leave", LeaveRequest{}, http.StatusOK, nil)
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not request shutdown")
	}

	// The quiescent scrape must match the substrate's ledgers exactly.
	tr := sub.Traffic()
	if !tr.Conserved() {
		t.Fatalf("traffic identity violated after drain: %+v", tr)
	}
	if tr.Sends == 0 || tr.Losses == 0 || tr.Deliveries == 0 {
		t.Fatalf("implausibly quiet run: %+v", tr)
	}
	got := scrapeProm(t, base)
	want := map[string]int{
		"sendforget_traffic_sends_total":        tr.Sends,
		"sendforget_traffic_losses_total":       tr.Losses,
		"sendforget_traffic_deliveries_total":   tr.Deliveries,
		"sendforget_traffic_dead_letters_total": tr.DeadLetters,
		"sendforget_faults_decisions_total":     tr.Sends,
		"sendforget_faults_model_drops_total":   tr.Losses - tr.LinkLosses - tr.PartitionDrops,
		"sendforget_pending_messages":           0,
	}
	for name, val := range want {
		if got[name] != fmt.Sprintf("%d", val) {
			t.Errorf("%s = %q, want %d", name, got[name], val)
		}
	}

	// The overlay survived all of it: connected, and every view invariant
	// holds (Drain checked them; check once more from the substrate side).
	if err := sub.CheckInvariants(); err != nil {
		t.Error(err)
	}
	views := sub.Views()
	if g := graph.FromViews(views); g.ComponentCount() != 1 {
		t.Errorf("overlay has %d components after churn, want 1", g.ComponentCount())
	}
	checkNoSelfLoops(t, views)

	// Full teardown; the -race run asserts no goroutine leaks past here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Error(err)
	}
}

// checkNoSelfLoops asserts no node's view contains its own id (S&F repairs
// self-loops; after churn + drain none should persist in a healthy run).
func checkNoSelfLoops(t *testing.T, views []*view.View) {
	t.Helper()
	loops := 0
	for u, v := range views {
		if v == nil {
			continue
		}
		if v.Contains(peer.ID(u)) {
			loops++
		}
	}
	// Churn plants self-entries (a rejoined node can be handed an arc to
	// itself) and the S&F transformation repairs them one per tick, so a
	// recently churned overlay carries a few. They must stay a small
	// minority, not the norm.
	if n := len(views); loops*4 > n {
		t.Errorf("%d of %d nodes hold self-loops after drain", loops, n)
	}
}

package mgmt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"sendforget/internal/metrics"
)

// Options parameterizes a management server.
type Options struct {
	// Addr is the listen address (e.g. "127.0.0.1:8700"; port 0 picks a
	// free one, readable from Addr after Start).
	Addr string
	// Backend is the managed node or cluster.
	Backend Backend
	// Log receives structured request/lifecycle logs; nil discards them.
	Log *slog.Logger
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ (off by
	// default: the path is then a 404 like any other unknown one).
	Pprof bool
	// Period is the daemon run loop's gossip period, which /config reports
	// and POST /config reloads. The period belongs to the run loop, not to
	// a backend; zero reports "0s".
	Period time.Duration
	// OnPeriod, when non-nil, is called with each reloaded period so the
	// run loop can retune its ticker, one call at a time. It must not
	// block.
	OnPeriod func(time.Duration)
}

// Server serves the management API and the /metrics exporter next to the
// gossip loop. Lifecycle: New, Start, then Shutdown (context-driven); a
// bare POST /leave additionally closes ShutdownRequested so the daemon's
// run loop can begin its own teardown.
type Server struct {
	backend Backend
	log     *slog.Logger

	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup

	start        time.Time
	shutdownOnce sync.Once
	shutdownCh   chan struct{}

	// reload serializes POST /config: a reload's backend update, period
	// and OnPeriod call land together, in request order.
	reload   sync.Mutex
	period   time.Duration
	onPeriod func(time.Duration)
}

// Connection time limits. A client that stalls — in its headers, in the
// middle of a body, or on an idle keep-alive connection — holds a goroutine
// and a socket until one of these fires. There is no write limit: /view of
// a 100k-node cluster is legitimately slow to send.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // headers plus body (at most maxBodyBytes)
	idleTimeout       = 2 * time.Minute  // between requests on a kept-alive connection
)

// New builds a server; Start makes it listen.
func New(o Options) (*Server, error) {
	if o.Backend == nil {
		return nil, fmt.Errorf("mgmt: nil backend")
	}
	if o.Addr == "" {
		return nil, fmt.Errorf("mgmt: empty listen address")
	}
	log := o.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		backend:    o.Backend,
		log:        log,
		shutdownCh: make(chan struct{}),
		period:     o.Period,
		onPeriod:   o.OnPeriod,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", s.handleHealth)
	mux.HandleFunc("GET /view", s.handleView)
	mux.HandleFunc("GET /config", s.handleGetConfig)
	mux.HandleFunc("POST /config", s.handlePostConfig)
	mux.HandleFunc("POST /join", s.handleJoin)
	mux.HandleFunc("POST /leave", s.handleLeave)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.srv = &http.Server{
		Addr:              o.Addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s, nil
}

// Start binds the listen address and launches the serve goroutine; Shutdown
// tears it down and waits for it.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return fmt.Errorf("mgmt: listen %q: %w", s.srv.Addr, err)
	}
	s.ln = ln
	//lint:allow detrand operational uptime for /health; never feeds protocol decisions
	s.start = time.Now()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("mgmt: serve", "err", err)
		}
	}()
	s.log.Info("mgmt: listening", "addr", ln.Addr().String())
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ShutdownRequested is closed when a bare POST /leave asks the daemon to
// exit; the run loop selects on it next to its signal context.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownCh }

// RequestShutdown closes ShutdownRequested. Idempotent.
func (s *Server) RequestShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

// Shutdown stops accepting connections, waits for in-flight handlers up to
// the context deadline, then waits for the serve goroutine. Safe to call
// without Start (no-op) and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.ln == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	s.wg.Wait()
	return err
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("mgmt: encode response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxBodyBytes bounds a POST body. The largest legitimate body is a join
// request listing seed ids; 1 MiB is orders of magnitude above it.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the request body into v, answering the
// request itself when it cannot: 413 for a body over maxBodyBytes, 400 for
// anything else malformed. Unknown fields are rejected so operator typos
// (e.g. "perid") fail loudly instead of applying a partial update, and so
// is anything after the first JSON value — a second object glued on, or
// junk — for the same reason. An empty body decodes to the zero value.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, fmt.Errorf("mgmt: bad request body: %w", err))
	return false
}

// healthResponse is the GET /health body.
type healthResponse struct {
	Status string `json:"status"`
	Info
	Rounds        int64   `json:"rounds"`
	Pending       int     `json:"pending"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Status()
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:  "ok",
		Info:    st.Info,
		Rounds:  st.Rounds,
		Pending: st.Pending,
		//lint:allow detrand operational uptime for /health; never feeds protocol decisions
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// viewResponse is the GET /view body.
type viewResponse struct {
	N     int        `json:"n"`
	Live  int        `json:"live"`
	Views []NodeView `json:"views"`
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	var only *int
	if q := r.URL.Query().Get("id"); q != "" {
		id, err := strconv.Atoi(q)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("mgmt: bad id %q", q))
			return
		}
		only = &id
	}
	views, live := s.backend.Views(only)
	if only != nil && len(views) == 0 {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("mgmt: node %d is not active", *only))
		return
	}
	s.writeJSON(w, http.StatusOK, viewResponse{N: s.backend.Status().N, Live: live, Views: views})
}

// configResponse is the GET and POST /config body: the backend's
// configuration and the run loop's period, which the server holds.
type configResponse struct {
	Config
	Period string `json:"period"`
}

// config reads the configuration /config reports.
func (s *Server) config() configResponse {
	cfg := s.backend.Status().Config
	s.reload.Lock()
	defer s.reload.Unlock()
	return configResponse{Config: cfg, Period: s.period.String()}
}

func (s *Server) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.config())
}

func (s *Server) handlePostConfig(w http.ResponseWriter, r *http.Request) {
	var upd ConfigUpdate
	if !s.decodeBody(w, r, &upd) {
		return
	}
	if err := s.reconfigure(upd); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.log.Info("mgmt: config reloaded",
		"period", deref(upd.Period, "unchanged"), "loss", derefAny(upd.Loss, "unchanged"))
	s.writeJSON(w, http.StatusOK, s.config())
}

// reconfigure applies a live partial update, all or nothing: the period is
// validated before the backend applies the loss (which it validates first),
// and set only once the backend has accepted.
func (s *Server) reconfigure(upd ConfigUpdate) error {
	var period time.Duration
	if upd.Period != nil {
		var err error
		if period, err = time.ParseDuration(*upd.Period); err != nil {
			return fmt.Errorf("mgmt: bad period %q: %w", *upd.Period, err)
		}
		if period <= 0 {
			return fmt.Errorf("mgmt: period must be positive, got %v", period)
		}
	}
	s.reload.Lock()
	defer s.reload.Unlock()
	if err := s.backend.Reconfigure(ConfigUpdate{Loss: upd.Loss}); err != nil {
		return err
	}
	if upd.Period != nil {
		s.period = period
		if s.onPeriod != nil {
			s.onPeriod(period)
		}
	}
	return nil
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.backend.Join(req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.log.Info("mgmt: join", "id", derefAny(req.ID, nil), "seeds", req.Seeds, "addr", req.Addr)
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.ID != nil {
		if err := s.backend.Leave(*req.ID); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		s.log.Info("mgmt: leave", "id", *req.ID)
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	// Bare leave: the daemon itself departs. Drain in-flight messages and
	// check invariants while still serving, then hand the run loop the
	// shutdown signal; it owns the final teardown.
	if err := s.backend.Drain(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.log.Info("mgmt: leave (daemon drain + shutdown requested)")
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	s.RequestShutdown()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Status()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := writeMetrics(w, &st); err != nil {
		s.log.Error("mgmt: metrics write", "err", err)
	}
}

// writeMetrics writes st as one Prometheus exposition, in one Write.
func writeMetrics(w io.Writer, st *Status) error {
	p := metrics.NewPromWriter(w)
	st.Traffic.WriteProm(p, "sendforget")
	c := st.Counters
	p.Counter("sendforget_node_ticks_total", "Initiated protocol actions across all nodes, departed ones included.", c.Ticks)
	p.Counter("sendforget_node_sends_total", "Messages emitted by initiate steps.", c.Sends)
	p.Counter("sendforget_node_receives_total", "Messages handled by receive steps.", c.Receives)
	p.Counter("sendforget_node_replies_total", "Replies emitted by request/reply protocols.", c.Replies)
	p.Counter("sendforget_node_duplications_total", "Messages sent with the duplication flag.", c.Duplications)
	p.Counter("sendforget_node_selfloops_total", "Initiated actions that were self-loop transformations.", c.SelfLoops)
	p.Counter("sendforget_node_send_errors_total", "Transport send errors.", c.SendErrors)
	if fc := st.Faults; fc != nil {
		// The per-message series are the router's ledger read by condition:
		// the fault layer rules on every send and counts none of them.
		tr := st.Traffic
		p.Counter("sendforget_faults_decisions_total", "Fault-layer rulings (one per attempted transmission).", tr.Sends)
		p.Counter("sendforget_faults_model_drops_total", "Drops by the base loss model.", tr.Losses-tr.PartitionDrops)
		p.Counter("sendforget_faults_partition_drops_total", "Drops across an active partition.", tr.PartitionDrops)
		p.Counter("sendforget_faults_delayed_total", "Messages assigned a nonzero delivery delay.", tr.Delayed)
		p.Counter("sendforget_faults_partitions_total", "Partition events.", fc.Partitions)
		p.Counter("sendforget_faults_heals_total", "Heal events.", fc.Heals)
	}
	p.Counter("sendforget_rounds_total", "Gossip rounds driven (local) or actions initiated (udp).", int(st.Rounds))
	p.Gauge("sendforget_pending_messages", "Messages parked in the delay queue.", float64(st.Pending))
	p.Gauge("sendforget_up", "1 while the management server is serving.", 1)
	return p.Flush()
}

// deref returns *p or alt when p is nil (log formatting helper).
func deref(p *string, alt string) string {
	if p == nil {
		return alt
	}
	return *p
}

// derefAny returns *p or alt when p is nil.
func derefAny[T any](p *T, alt any) any {
	if p == nil {
		return alt
	}
	return *p
}

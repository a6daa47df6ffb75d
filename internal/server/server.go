// Package server is the HTTP serving layer over the why-not query engine: a
// JSON API hardened for sustained overload.
//
// The request path is, in order:
//
//	decode/validate → admission control → per-request deadline →
//	engine ladder (exact → approx → MWP) behind per-rung circuit breakers
//
// Admission is token-based with a bounded wait queue and deadline-aware load
// shedding: a request that would spend its whole deadline queued is refused
// immediately with 429 and an honest Retry-After. Each ladder rung the engine
// keeps failing is circuit-broken — skipped for a probe window while the
// cheaper rungs keep answering — so injected or organic faults degrade answer
// optimality, never availability. Handler panics are isolated per request;
// engine panics never even reach the handler (the ladder absorbs them).
//
// Datasets hot-swap with zero downtime: /v1/admin/reload builds a fully
// immutable Snapshot off to the side and publishes it with one atomic pointer
// store. In-flight requests keep the snapshot they loaded; the outgoing
// snapshot's memoisation caches are retired via the engine's generation
// stamps. SIGTERM (cmd/serve) triggers graceful drain: /v1/readyz flips to
// not-ready, the listener stops accepting, in-flight requests finish up to
// the drain deadline, then the base context is cancelled and the cooperative
// checkpoints abort whatever is left.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cancel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/obs/flight"
	"repro/internal/wal"
)

// Config assembles a Server. Zero fields get the documented defaults.
type Config struct {
	// Dataset is the boot dataset.
	Dataset DatasetSpec
	// Workers is each snapshot DB's repro.DBOptions.Parallelism
	// (0 → sequential, <0 → GOMAXPROCS), the one worker count every query
	// on it uses: reverse-skyline verification, the safe-region rungs of the
	// degradation ladder and the approximate-store build.
	Workers int
	// CacheSize bounds the per-customer memoisation caches (0 = off).
	CacheSize int
	// Admission tunes the admission controller.
	Admission AdmissionConfig
	// Breaker tunes the per-rung circuit breakers.
	Breaker BreakerConfig
	// RungTimeout is the per-rung budget of the degradation ladder.
	// Default: 2s.
	RungTimeout time.Duration
	// RequestTimeout caps the end-to-end deadline of one query request;
	// client-requested timeouts are clamped to it. Default: 10s.
	RequestTimeout time.Duration
	// ReloadTimeout bounds a snapshot build. Default: 2m.
	ReloadTimeout time.Duration
	// Hook, when non-nil, is installed on every query context as the
	// cooperative-checkpoint fault-injection hook (the chaos harness's
	// entry point into a live server).
	Hook cancel.Hook
	// Registry receives every metric; a fresh one is built when nil.
	Registry *obs.Registry
	// Durability, when non-nil, opens a write-ahead log: boot recovers the
	// log over the Dataset base, /v1/admin/insert|delete commit to it before
	// publishing, reload checkpoints it (a reload supersedes prior
	// mutations), and Shutdown flushes it. Without it mutations are
	// memory-only and lost on restart.
	Durability *wal.Options
	// ReopenProbeMin/Max bound the storage reopen probe's exponential
	// backoff: after a storage fault degrades the WAL, the probe retries
	// wal.Reopen starting at Min and doubling up to Max until the disk
	// recovers. Defaults: 100ms / 5s.
	ReopenProbeMin time.Duration
	ReopenProbeMax time.Duration
	// ScrubEvery, when positive, runs the background WAL integrity scrubber
	// at this period (durable mode only). Zero disables it; RunScrub is
	// always available for on-demand passes.
	ScrubEvery time.Duration
	// ScrubBytesPerSec rate-limits scrubber reads (0 = unlimited).
	ScrubBytesPerSec int64
	// FlightSize bounds the flight-recorder ring of per-request QueryRecords
	// served at GET /v1/debug/queries. 0 selects the flight.Config default
	// (256); a negative size disables the recorder entirely.
	FlightSize int
	// SlowlogPath, when non-empty, appends every tail-sampled QueryRecord as
	// a schema-versioned JSON line there (rotated once at SlowlogMaxBytes);
	// Shutdown flushes and closes it.
	SlowlogPath string
	// SlowlogMaxBytes is the slow-query log rotation threshold (0 = 8 MiB).
	SlowlogMaxBytes int64
	// SLOs declares per-op latency/error objectives; 5m/1h burn-rate gauges
	// are rendered in /metrics and /v1/admin/status.
	SLOs []flight.Objective
}

func (c Config) withDefaults() Config {
	if c.RungTimeout <= 0 {
		c.RungTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 2 * time.Minute
	}
	if c.ReopenProbeMin <= 0 {
		c.ReopenProbeMin = 100 * time.Millisecond
	}
	if c.ReopenProbeMax <= 0 {
		c.ReopenProbeMax = 5 * time.Second
	}
	if c.ReopenProbeMax < c.ReopenProbeMin {
		c.ReopenProbeMax = c.ReopenProbeMin
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the overload-safe query service.
type Server struct {
	cfg        Config
	adm        *Admission
	breakers   *BreakerSet
	metrics    *Metrics
	engMetrics *engine.Metrics

	flight     *flight.Ledger
	slo        *flight.SLOTracker
	slowlog    *flight.SlowLog
	walMetrics *wal.Metrics

	// fingerprints lives on the server, not the snapshot: drift baselines
	// must survive dataset hot-swaps, or every reload would blind the
	// regression detector.
	fingerprints *explain.Store

	snap     atomic.Pointer[Snapshot]
	seq      atomic.Uint64
	reloadMu chan struct{} // 1-buffered: serialises snapshot builds

	// mutMu orders every snapshot publish (mutations, reload swaps, boot)
	// and, in durable mode, keeps WAL append order identical to publish
	// order. wal and walRec are nil/zero without Config.Durability.
	mutMu     sync.Mutex
	wal       *wal.Log
	walRec    wal.Recovery
	walClosed bool // set under mutMu by closeWAL
	// pendingPub (under mutMu) holds a mutation that was durably logged but
	// whose snapshot failed to publish: serving state lags the WAL, further
	// mutations are refused (503) so the divergence cannot compound, and the
	// storage probe retries the publish until it lands. Queries keep serving.
	pendingPub *pendingPublish

	// storageNotify wakes the reopen probe after a storage fault; storageSt
	// and lastScrub are the lock-free views readyz/status read.
	storageNotify chan struct{}
	storageSt     atomic.Value // storageState
	lastScrub     atomic.Pointer[wal.ScrubReport]

	draining atomic.Bool

	baseCtx    context.Context
	cancelBase context.CancelFunc
	httpSrv    *http.Server
	handler    http.Handler
}

// New builds a Server and its boot snapshot. The returned server is ready to
// Serve; until the first successful snapshot build it would refuse readiness,
// but New does not return before that build succeeds.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reloadMu: make(chan struct{}, 1)}
	var admPtr atomic.Pointer[Admission]
	s.metrics = NewMetrics(cfg.Registry, func() *Admission { return admPtr.Load() })
	s.adm = NewAdmission(cfg.Admission, s.metrics)
	admPtr.Store(s.adm)
	s.breakers = NewBreakerSet(cfg.Breaker, s.metrics)
	s.engMetrics = engine.NewMetrics(cfg.Registry)
	obs.RegisterCost(cfg.Registry)
	obs.RegisterTraceHealth(cfg.Registry)
	obs.RegisterRuntime(cfg.Registry)
	s.fingerprints = explain.NewStore()
	cfg.Registry.GaugeFunc("fingerprint_drift",
		"Workload classes whose recent counted-work p95 drifted past their frozen baseline",
		func() float64 { return float64(s.fingerprints.Drifting()) })
	if err := s.initFlight(); err != nil {
		return nil, err
	}

	snap, err := s.bootSnapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("server: boot snapshot: %w", err)
	}
	s.mutMu.Lock()
	s.publishLocked(snap)
	s.mutMu.Unlock()

	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.storageSt.Store(storageState{})
	if s.wal != nil {
		s.storageNotify = make(chan struct{}, 1)
		go s.storageProbeLoop()
		if cfg.ScrubEvery > 0 {
			go s.scrubLoop()
		}
	}
	s.handler = s.buildMux()
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	return s, nil
}

func (s *Server) dbOptions() repro.DBOptions {
	return repro.DBOptions{Parallelism: s.cfg.Workers, CacheSize: s.cfg.CacheSize}
}

// bootSnapshot builds the first serving snapshot. In durable mode the WAL is
// recovered first: the newest valid on-disk snapshot (or the configured base
// dataset when none exists) plus the replayed log tail defines the item set,
// so mutations acknowledged before the last shutdown/crash are serving again
// before the listener opens.
func (s *Server) bootSnapshot(ctx context.Context) (*Snapshot, error) {
	if s.cfg.Durability == nil {
		return buildSnapshot(ctx, s.cfg.Dataset, s.dbOptions())
	}
	wopts := *s.cfg.Durability
	if wopts.Metrics == nil {
		wopts.Metrics = wal.NewMetrics(s.cfg.Registry)
	}
	s.walMetrics = wopts.Metrics
	l, rec, err := wal.Open(wopts)
	if err != nil {
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	s.wal = l
	s.walRec = rec
	items, name, err := loadItems(s.cfg.Dataset)
	if err != nil {
		return nil, errors.Join(err, l.Close())
	}
	start := items
	if rec.HaveSnapshot {
		start = rec.Items
	}
	merged, err := wal.ApplyTail(start, rec.Tail)
	if err != nil {
		return nil, errors.Join(err, l.Close())
	}
	if len(merged) == 0 {
		return nil, errors.Join(fmt.Errorf("recovered dataset %s is empty", name), l.Close())
	}
	if rec.HaveSnapshot || len(rec.Tail) > 0 {
		name += " (+wal)"
	}
	snap, err := snapshotFromItems(ctx, merged, name, s.cfg.Dataset.BuildStore, s.cfg.Dataset.K, s.dbOptions())
	if err != nil {
		return nil, errors.Join(err, l.Close())
	}
	return snap, nil
}

// publishLocked assigns the next swap sequence number and publishes snap
// atomically. Every publish site holds mutMu, which is what makes the
// snapshot_seq a request observes monotone even when mutations race reloads.
func (s *Server) publishLocked(snap *Snapshot) {
	snap.Seq = s.seq.Add(1)
	old := s.snap.Swap(snap)
	if old != nil {
		old.DB.InvalidateCaches()
	}
	s.metrics.SnapshotSeq.Set(float64(snap.Seq))
}

// Handler returns the fully wired HTTP handler (panic isolation included).
// Note that serving it outside Serve bypasses the drain machinery's base
// context — use Serve/Shutdown for production lifecycles.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's metric registry.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Registry }

// Breakers returns the per-rung breaker bank (status inspection).
func (s *Server) Breakers() *BreakerSet { return s.breakers }

// ServerPanics reports how many panics reached the recover middleware —
// zero on a healthy server; query-algorithm panics are absorbed below it.
func (s *Server) ServerPanics() uint64 { return s.metrics.Panics.Value() }

// Snapshot returns the currently serving snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/whynot", s.handleWhyNot)
	mux.HandleFunc("POST /v1/rskyline", s.handleRSkyline)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	mux.HandleFunc("POST /v1/admin/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/admin/delete", s.handleDelete)
	mux.HandleFunc("GET /v1/admin/status", s.handleStatus)
	mux.HandleFunc("GET /v1/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("GET /v1/debug/fingerprints", s.handleDebugFingerprints)
	mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	mux.Handle("GET /metrics.json", s.cfg.Registry.JSONHandler())
	return s.recoverMiddleware(mux)
}

// recoverMiddleware is the outermost panic isolation: a panicking handler
// produces one 500 for its own request and nothing else. Query-algorithm
// panics are already absorbed a layer down by the engine's ladder; anything
// caught here is a server bug, counted loudly.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ww := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panics.Inc()
				if !ww.wrote {
					s.writeError(ww, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
				}
			}
		}()
		next.ServeHTTP(ww, r)
	})
}

// statusWriter records whether and with what status a response was started,
// so panic isolation and response accounting see the truth.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ---- responses ----

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSONBody(w, v)
	s.metrics.Responses.With(strconv.Itoa(code)).Inc()
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]any{"error": msg})
}

func (s *Server) writeShed(w http.ResponseWriter, shed *ErrShed) {
	w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfterSeconds()))
	s.writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":         "overloaded: " + shed.Reason,
		"reason":        shed.Reason,
		"retry_after_s": shed.RetryAfterSeconds(),
	})
}

// errorStatus maps a query failure to an HTTP status plus an optional
// Retry-After duration. Classification precedence matters for joined ladder
// errors: a panic anywhere is a 500 **only if** no cheaper rung answered
// (the ladder returns nil otherwise); deadline beats breaker-skip because it
// describes what the client experienced.
func (s *Server) errorStatus(err error) (code int, retryAfter time.Duration) {
	var qe *engine.QueryError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		if s.draining.Load() {
			// Drain-deadline cancellation: tell the client to go elsewhere.
			return http.StatusServiceUnavailable, time.Second
		}
		// Client went away; the status is written into a dead socket, the
		// code only matters for accounting (nginx's 499 convention).
		return 499, 0
	case errors.Is(err, engine.ErrRungSkipped):
		// Every available rung was vetoed by its breaker: fail fast and tell
		// the client when the probe window reopens.
		return http.StatusServiceUnavailable, s.breakerRetry()
	case errors.As(err, &qe) && qe.Panic != nil:
		return http.StatusInternalServerError, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

func (s *Server) breakerRetry() time.Duration {
	d := s.cfg.Breaker.withDefaults().OpenFor
	if d < time.Second {
		d = time.Second
	}
	return d
}

func (s *Server) failQuery(w http.ResponseWriter, err error) {
	code, retry := s.errorStatus(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	}
	s.writeError(w, code, err.Error())
}

// ---- query endpoints ----

// queryContext derives the execution context for one query request: the
// request deadline (client ask clamped to the server cap), the fault-
// injection hook when configured, and the request's flight record, whose
// tally counts this request's work alone and whose trace records its spans
// (always recording, sampled at Finish). Without the flight recorder a
// trace exists only when the client asked for one.
func (s *Server) queryContext(r *http.Request, timeoutMS int64, trace bool, op string, act *flight.Active) (context.Context, context.CancelFunc, *obs.Trace) {
	ctx := r.Context()
	if s.cfg.Hook != nil {
		ctx = cancel.WithHook(ctx, s.cfg.Hook)
	}
	if act == nil && trace {
		ctx = obs.WithTrace(ctx, obs.NewTrace(op))
	}
	ctx = act.Context(ctx)
	tr := obs.TraceFrom(ctx)
	timeout := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancelCtx := context.WithTimeout(ctx, timeout)
	return ctx, cancelCtx, tr
}

// admit runs the admission controller for one query request and reports
// whether the request may proceed; a shed is already answered when it
// returns false. The admission wait is recorded as a span on tr and as the
// flight record's queue-wait; the verdict lands on the record.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, tr *obs.Trace, act *flight.Active) (func(), bool) {
	start := obs.Now()
	release, err := s.adm.Acquire(ctx)
	act.SetQueueWait(obs.Since(start))
	if tr != nil {
		tr.AddSpan("admission", start, obs.Now())
	}
	if err != nil {
		var shed *ErrShed
		if errors.As(err, &shed) {
			act.SetAdmission("shed:" + shed.Reason)
			if tr != nil {
				tr.Eventf("shed", "%s", shed.Reason)
			}
			s.writeShed(w, shed)
		} else {
			act.SetAdmission("refused")
			s.writeError(w, http.StatusServiceUnavailable, err.Error())
		}
		return nil, false
	}
	act.SetAdmission("admitted")
	return release, true
}

func (s *Server) handleWhyNot(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.With("whynot").Inc()
	began := obs.Now()
	defer func() { s.metrics.RequestDur.ObserveSince(began) }()

	req, err := DecodeWhyNotRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.snap.Load()
	if snap == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no dataset loaded")
		return
	}
	if dims := snap.DB.Dims(); len(req.Q) != dims {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("q has %d dims, dataset has %d", len(req.Q), dims))
		return
	}
	ct, ok := snap.Customer(req.CustomerID)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("customer %d not found", req.CustomerID))
		return
	}

	// The flight record opens only once the request is valid enough to enter
	// admission: decode/validation rejections never admitted anything and
	// leave no record. One terminal Finish is guaranteed by the deferred
	// closure below — including on a handler panic (Finish precedes the
	// recover middleware) and on every early return.
	act := s.flight.Begin("whynot", "http",
		fmt.Sprintf("q=%v customer=%d", req.Q, req.CustomerID), snap.DB.Workers())
	act.SetSnapshotSeq(snap.Seq)
	var qerr error
	defer func() { s.finishRecord(act, "whynot", began, w, qerr) }()

	ctx, cancelCtx, tr := s.queryContext(r, req.TimeoutMS, req.Trace, "whynot", act)
	defer cancelCtx()
	release, ok := s.admit(ctx, w, tr, act)
	if !ok {
		return
	}
	defer release()

	// Every admitted why-not request gets a plan profile: the fingerprint
	// store needs the plan shape to classify the workload even when the
	// client did not ask to see the tree (?explain=1 only controls whether
	// the plan is attached to the response).
	eb := explain.NewBuilder("whynot", snap.DB.Dims())
	ctx = explain.With(ctx, eb)

	q := repro.NewPoint(req.Q...)
	member, err := snap.DB.IsReverseSkylineContext(ctx, ct, q)
	if err != nil {
		qerr = err
		s.failQuery(w, err)
		return
	}
	if member {
		s.writeJSON(w, http.StatusOK, map[string]any{
			"already_member": true,
			"customer_id":    ct.ID,
			"snapshot_seq":   snap.Seq,
		})
		return
	}
	rsl, err := snap.ReverseSkyline(ctx, q)
	if err != nil {
		qerr = err
		s.failQuery(w, err)
		return
	}
	runner := engine.NewRunner(snap.DB.Engine(), engine.Config{
		Timeout: s.cfg.RungTimeout,
		Degrade: true,
		Store:   snap.Store,
		Metrics: s.engMetrics,
		Gate:    s.breakers,
	})
	ans, err := runner.MWQ(ctx, ct, q, rsl)
	if err != nil {
		qerr = err
		s.failQuery(w, err)
		return
	}
	act.SetRung(ans.Rung.String(), ans.Degraded)
	plan := eb.Finish(ans.Rung.String())
	if s.fingerprints.Observe(plan) {
		act.Trace().Eventf("fingerprint_drift", "%s", plan.Fingerprint)
	}
	res := ans.Result
	body := map[string]any{
		"case":         res.Case,
		"q_star":       []float64(res.QStar),
		"cost":         res.Cost,
		"rung":         ans.Rung.String(),
		"degraded":     ans.Degraded,
		"rsl_size":     len(rsl),
		"snapshot_seq": snap.Seq,
	}
	if res.CtStar != nil {
		body["ct_star"] = []float64(res.CtStar)
	}
	// The trace now exists for every flight-recorded request; the response
	// embeds it only when the client asked.
	if tr != nil && req.Trace {
		body["trace"] = traceJSON(tr)
	}
	if r.URL.Query().Get("explain") == "1" {
		body["plan"] = plan
		body["plan_text"] = plan.String()
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleRSkyline(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.With("rskyline").Inc()
	began := obs.Now()
	defer func() { s.metrics.RequestDur.ObserveSince(began) }()

	req, err := DecodeRSkylineRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap := s.snap.Load()
	if snap == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no dataset loaded")
		return
	}
	if dims := snap.DB.Dims(); len(req.Q) != dims {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("q has %d dims, dataset has %d", len(req.Q), dims))
		return
	}

	act := s.flight.Begin("rskyline", "http", fmt.Sprintf("q=%v", req.Q), snap.DB.Workers())
	act.SetSnapshotSeq(snap.Seq)
	var qerr error
	defer func() { s.finishRecord(act, "rskyline", began, w, qerr) }()

	ctx, cancelCtx, tr := s.queryContext(r, req.TimeoutMS, false, "rskyline", act)
	defer cancelCtx()
	release, ok := s.admit(ctx, w, tr, act)
	if !ok {
		return
	}
	defer release()

	q := repro.NewPoint(req.Q...)
	rsl, err := snap.ReverseSkyline(ctx, q)
	if err != nil {
		qerr = err
		s.failQuery(w, err)
		return
	}
	ids := make([]int, len(rsl))
	for i, it := range rsl {
		ids[i] = it.ID
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":        len(rsl),
		"customer_ids": ids,
		"snapshot_seq": snap.Seq,
	})
}

// ---- health, status, reload ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case s.snap.Load() == nil:
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no dataset"})
	default:
		// A storage-degraded server stays ready: queries serve normally, only
		// mutations refuse. The field tells load balancers and operators the
		// truth without pulling query traffic.
		s.writeJSON(w, http.StatusOK, map[string]any{
			"ready":        true,
			"snapshot_seq": s.snap.Load().Seq,
			"storage":      s.storageState().String(),
		})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	body := map[string]any{
		"draining": s.draining.Load(),
		"admission": map[string]any{
			"max_concurrent":   s.adm.cfg.MaxConcurrent,
			"max_queue":        s.adm.cfg.MaxQueue,
			"queue_depth":      s.adm.QueueDepth(),
			"inflight":         s.adm.InFlight(),
			"service_estimate": s.adm.ServiceEstimate().String(),
			"queue_wait_est":   s.adm.EstimatedWait().String(),
		},
		"breakers": s.breakers.Status(),
	}
	if snap != nil {
		body["snapshot"] = map[string]any{
			"seq":       snap.Seq,
			"name":      snap.Name,
			"items":     len(snap.Items),
			"dims":      snap.DB.Dims(),
			"has_store": snap.Store != nil,
		}
	}
	if s.flight != nil {
		body["flight"] = s.flight.StatusValue()
	}
	if s.slo != nil {
		body["slo"] = s.slo.Status()
	}
	if s.wal != nil {
		st := s.wal.Stats()
		body["wal"] = map[string]any{
			"dir":            st.Dir,
			"policy":         st.Policy,
			"last_seq":       st.LastSeq,
			"segments":       st.Segments,
			"active_bytes":   st.ActiveBytes,
			"appended_bytes": st.AppendedBytes,
			"fsync_p99_ms":   s.walMetrics.FsyncDur.Quantile(0.99) * 1e3,
			"snapshot_write_p99_ms": s.walMetrics.SnapshotWriteDur.
				Quantile(0.99) * 1e3,
			"recovery": map[string]any{
				"had_snapshot":         s.walRec.HaveSnapshot,
				"snapshot_seq":         s.walRec.SnapshotSeq,
				"replayed_records":     len(s.walRec.Tail),
				"torn_tail":            s.walRec.TornTail,
				"corrupt_snapshots":    s.walRec.CorruptSnapshots,
				"quarantined_segments": s.walRec.QuarantinedSegments,
				"duration_ms":          float64(s.walRec.Duration) / 1e6,
			},
		}
		sst := s.storageState()
		storage := map[string]any{
			"state":         sst.String(),
			"reopen_probes": s.metrics.ReopenProbes.Value(),
		}
		if sst.Degraded {
			storage["reason"] = sst.Reason
			storage["detail"] = sst.Detail
		}
		if rep := s.lastScrub.Load(); rep != nil {
			storage["last_scrub"] = rep
		}
		body["storage"] = storage
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.With("reload").Inc()
	req, err := DecodeReloadRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Serialise builds; a second reload arriving mid-build gets 409 instead
	// of stacking an unbounded backlog of expensive index constructions.
	select {
	case s.reloadMu <- struct{}{}:
		defer func() { <-s.reloadMu }()
	default:
		s.writeError(w, http.StatusConflict, "a reload is already in progress")
		return
	}

	ctx, cancelCtx := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
	defer cancelCtx()
	began := obs.Now()
	snap, err := buildSnapshot(ctx, DatasetSpec{
		Path:       req.Path,
		Generate:   req.Generate,
		BuildStore: req.BuildStore,
		K:          req.K,
	}, s.dbOptions())
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("reload failed: %v", err))
		return
	}

	// The swap itself: one atomic pointer store publishes the new dataset to
	// every subsequent request. Queries that already hold the old snapshot
	// finish against it unchanged; its caches are retired via the generation
	// stamps so nothing stale can ever be served from them again. In durable
	// mode the new dataset is checkpointed into the WAL *before* the swap —
	// a reload starts a new durability epoch superseding every prior
	// mutation, and a crash right after the swap must recover the new
	// dataset, not the old one plus a stale tail.
	s.mutMu.Lock()
	if s.wal != nil {
		if err := s.wal.Checkpoint(snap.Items, s.wal.LastSeq()); err != nil {
			s.updateStorageLocked()
			s.mutMu.Unlock()
			if s.wal.Failed() != nil {
				// The checkpoint degraded (or found degraded) the log: this is
				// a storage condition with a recovery probe, not a server bug.
				s.noteStorageFault()
				s.writeStorageUnavailable(w, fmt.Sprintf("reload checkpoint failed: %v", err))
				return
			}
			s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("reload checkpoint failed: %v", err))
			return
		}
	}
	s.publishLocked(snap)
	// The checkpoint above superseded any logged-but-unpublished mutation:
	// durable and serving state agree again, so the mutation path reopens.
	s.pendingPub = nil
	s.updateStorageLocked()
	s.mutMu.Unlock()
	s.metrics.Reloads.Inc()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"snapshot_seq": snap.Seq,
		"name":         snap.Name,
		"items":        len(snap.Items),
		"dims":         snap.DB.Dims(),
		"has_store":    snap.Store != nil,
		"build_ms":     float64(obs.Since(began)) / 1e6,
	})
}

// ---- lifecycle ----

// Serve accepts connections on ln until Shutdown. A closed-by-shutdown exit
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// BeginDrain flips the server to draining: /v1/readyz turns not-ready so load
// balancers stop routing here, while already-accepted requests keep being
// served. Idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.metrics.Draining.Set(1)
	}
}

// Shutdown drains gracefully: readiness flips first, the listener stops
// accepting, in-flight requests get until ctx's deadline to finish, and
// whatever is still running then is cancelled through the cooperative
// checkpoints (those requests answer 503) before connections are torn down.
// In durable mode the WAL is checkpointed and closed after the drain, so a
// clean shutdown leaves a snapshot-current log and the next boot recovers
// with an empty tail.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.httpSrv.Shutdown(ctx)
	if err == nil {
		s.cancelBase()
		return s.closeResources()
	}
	// Drain deadline passed with requests still in flight: cancel their
	// contexts so the checkpoint machinery aborts them promptly, give the
	// handlers a moment to write their 503s, then close for real.
	s.cancelBase()
	grace, cancelGrace := context.WithTimeout(context.Background(), time.Second)
	defer cancelGrace()
	if err2 := s.httpSrv.Shutdown(grace); err2 == nil {
		return errors.Join(err, s.closeResources())
	}
	_ = s.httpSrv.Close()
	return errors.Join(err, s.closeResources())
}

// closeResources flushes the durable and diagnostic state on the way down:
// the WAL (checkpoint + close) and the slow-query log. Runs after the HTTP
// drain, so every finished request's record has reached the log.
func (s *Server) closeResources() error {
	return errors.Join(s.closeWAL(), s.closeSlowlog())
}

// closeWAL flushes the log on the way down: checkpoint the serving item set
// (best effort — an append-path failure must not mask the drain result) and
// close. Idempotent via wal.Close; a no-op without durability.
func (s *Server) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if s.walClosed {
		return nil
	}
	s.walClosed = true
	var errs []error
	// A pending publish means the serving snapshot lags the log;
	// checkpointing it at LastSeq would silently discard the logged-but-
	// unpublished record. Leave the tail for restart recovery to replay.
	// An IO-degraded log cannot checkpoint at all — skip rather than mask
	// the drain result with the inevitable refusal.
	skipCheckpoint := s.pendingPub != nil
	if se := s.wal.Failed(); se != nil && se.Kind != wal.KindCorruption {
		skipCheckpoint = true
	}
	if snap := s.snap.Load(); snap != nil && !skipCheckpoint {
		if err := s.wal.Checkpoint(snap.Items, s.wal.LastSeq()); err != nil {
			errs = append(errs, fmt.Errorf("server: shutdown checkpoint: %w", err))
		}
	}
	if err := s.wal.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server: wal close: %w", err))
	}
	return errors.Join(errs...)
}

// traceJSON renders a trace compactly for inclusion in a response body.
func traceJSON(tr *obs.Trace) []map[string]any {
	spans := tr.Spans()
	out := make([]map[string]any, 0, len(spans))
	for _, sp := range spans {
		out = append(out, map[string]any{
			"name":        sp.Name,
			"duration_ms": float64(sp.Duration()) / 1e6,
		})
	}
	return out
}

func writeJSONBody(w http.ResponseWriter, v any) {
	_ = json.NewEncoder(w).Encode(v)
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// initFlight wires the flight recorder, slow-query log and SLO tracker from
// the config. A negative FlightSize disables the recorder (and with it the
// slow log); SLO tracking is independent and stays on either way.
func (s *Server) initFlight() error {
	s.slo = flight.NewSLOTracker(s.cfg.SLOs, s.cfg.Registry)
	if s.cfg.FlightSize < 0 {
		return nil
	}
	if s.cfg.SlowlogPath != "" {
		sl, err := flight.OpenSlowLog(s.cfg.SlowlogPath, s.cfg.SlowlogMaxBytes)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		s.slowlog = sl
	}
	s.flight = flight.New(flight.Config{
		Size:     s.cfg.FlightSize,
		Latency:  s.metrics.RequestDur,
		Slowlog:  s.slowlog,
		Epoch:    time.Now().Add(-time.Duration(obs.Now())),
		Registry: s.cfg.Registry,
	})
	return nil
}

// FlightRecorder returns the query ledger (nil when disabled) — the chaos
// harness and tests read record accounting through it.
func (s *Server) FlightRecorder() *flight.Ledger { return s.flight }

func (s *Server) closeSlowlog() error {
	if s.slowlog == nil {
		return nil
	}
	if err := s.slowlog.Close(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// finishRecord closes one query's flight record and feeds the SLO tracker.
// qerr is the query failure the handler saw (nil for shed/validation paths —
// the written HTTP status then classifies the outcome); the response writer
// is the middleware's statusWriter, so the status read here is the one the
// client actually got, even if a deeper layer wrote it.
func (s *Server) finishRecord(act *flight.Active, op string, began int64, w http.ResponseWriter, qerr error) {
	outcome := s.outcomeFor(qerr, statusOf(w))
	msg := ""
	if qerr != nil {
		msg = qerr.Error()
	}
	act.Finish(outcome, msg)
	s.slo.Observe(op, obs.Since(began), sloFailed(outcome))
}

// statusOf reads the response status through the recover middleware's
// statusWriter; 0 means nothing was written yet (treated as OK by
// outcomeFor, which only happens on panic paths that the middleware then
// turns into a 500 — the record still exists either way).
func statusOf(w http.ResponseWriter) int {
	if sw, ok := w.(*statusWriter); ok {
		return sw.status
	}
	return 0
}

// outcomeFor classifies a finished request. The handler's query error wins
// when present (it is the cause); otherwise the written HTTP status is
// mapped back — that covers sheds (429), drain cancellations (503) and
// validation-free success paths uniformly.
func (s *Server) outcomeFor(qerr error, status int) string {
	if qerr != nil {
		var shed *ErrShed
		switch {
		case errors.As(qerr, &shed):
			return flight.OutcomeShed
		case errors.Is(qerr, context.DeadlineExceeded):
			return flight.OutcomeDeadline
		case errors.Is(qerr, context.Canceled):
			if s.draining.Load() {
				return flight.OutcomeUnavailable
			}
			return flight.OutcomeCanceled
		case errors.Is(qerr, engine.ErrRungSkipped):
			return flight.OutcomeUnavailable
		case errors.Is(qerr, errStorageDegraded):
			return flight.OutcomeReadOnly
		case errors.Is(qerr, errWALClosed):
			return flight.OutcomeUnavailable
		default:
			return flight.OutcomeError
		}
	}
	switch {
	case status == 0 || status/100 == 2:
		return flight.OutcomeOK
	case status == http.StatusTooManyRequests:
		return flight.OutcomeShed
	case status == 499:
		return flight.OutcomeCanceled
	case status == http.StatusGatewayTimeout:
		return flight.OutcomeDeadline
	case status == http.StatusServiceUnavailable:
		return flight.OutcomeUnavailable
	default:
		return flight.OutcomeError
	}
}

// sloFailed says which outcomes count against the error budget. Cancellation
// is the client hanging up — their choice, not our failure — and sheds DO
// count: a refused request is still a request the service failed to serve.
func sloFailed(outcome string) bool {
	return outcome != flight.OutcomeOK && outcome != flight.OutcomeCanceled
}

// handleDebugQueries is the in-flight inspector plus recent-records view:
//
//	GET /v1/debug/queries            JSON, params redacted
//	GET /v1/debug/queries?raw=1      include raw request parameters
//	GET /v1/debug/queries?limit=20   cap the recent list
//	GET /v1/debug/queries?format=text (or Accept: text/plain) human rendering
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	raw := q.Get("raw") == "1"
	inflight := s.flight.InFlight()
	recent := s.flight.Recent(limit)
	if !raw {
		// Raw parameters are data points (query positions, customer IDs);
		// the digest is enough to correlate, so they stay out by default.
		for i := range recent {
			recent[i].Params = ""
		}
	}
	if q.Get("format") == "text" || strings.Contains(r.Header.Get("Accept"), "text/plain") {
		s.writeDebugText(w, inflight, recent)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"in_flight": inflight,
		"recent":    recent,
		"totals":    s.flight.Totals(),
		"redacted":  !raw,
	})
}

func (s *Server) writeDebugText(w http.ResponseWriter, inflight []flight.InFlightInfo, recent []flight.QueryRecord) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "in-flight (%d):\n", len(inflight))
	for _, q := range inflight {
		fmt.Fprintf(w, "  #%-6d %-10s %-6s age=%-10s phase=%s workers=%d\n",
			q.ID, q.Op, q.Source, fmtMS(q.AgeMS), q.Phase, q.Workers)
	}
	fmt.Fprintf(w, "recent (%d, newest first):\n", len(recent))
	for _, rec := range recent {
		line := fmt.Sprintf("  #%-6d %-10s %-12s %-10s adm=%-14s", rec.ID, rec.Op,
			rec.Outcome, fmtMS(rec.DurationMS), rec.Admission)
		if rec.Rung != "" {
			line += " rung=" + rec.Rung
		}
		if rec.Degraded {
			line += " DEGRADED"
		}
		if rec.Sampled {
			line += " sampled=" + rec.SampleReason
		}
		fmt.Fprintln(w, line)
	}
	s.metrics.Responses.With(strconv.Itoa(http.StatusOK)).Inc()
}

func fmtMS(ms float64) string {
	return (time.Duration(ms*1e6) * time.Nanosecond).Round(10 * time.Microsecond).String()
}

package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs/explain"
)

// Fingerprints returns the server's query-fingerprint regression store, for
// tests to read class aggregates through; the handlers read the field.
func (s *Server) Fingerprints() *explain.Store { return s.fingerprints }

// handleDebugFingerprints serves the query-fingerprint regression store:
//
//	GET /v1/debug/fingerprints             JSON, busiest class first
//	GET /v1/debug/fingerprints?format=text (or Accept: text/plain)
//
// Each class is one workload shape (op × dims × rung × plan shape) with its
// latency/cost/prune-ratio percentiles, the frozen baseline p95, and the
// drift verdict. The calibration block is the live cost model (ns per work
// unit per pruning rule) the per-node estimates are made from.
func (s *Server) handleDebugFingerprints(w http.ResponseWriter, r *http.Request) {
	classes := s.fingerprints.Snapshot()
	if r.URL.Query().Get("format") == "text" || strings.Contains(r.Header.Get("Accept"), "text/plain") {
		s.writeFingerprintText(w, classes)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"classes":     classes,
		"drifting":    s.fingerprints.Drifting(),
		"overflow":    s.fingerprints.Overflow(),
		"calibration": s.explainModel.Calibration(),
	})
}

func (s *Server) writeFingerprintText(w http.ResponseWriter, classes []explain.ClassSnapshot) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "fingerprint classes (%d, busiest first):\n", len(classes))
	for _, c := range classes {
		line := fmt.Sprintf("  %s %-8s dims=%d n=%-6d p50=%.2fms p95=%.2fms base=%.2fms cost_p95=%.0f prune_p50=%.0f%%",
			c.Fingerprint, c.Op, c.Dims, c.Count,
			c.LatencyP50MS, c.LatencyP95MS, c.BaselineP95MS, c.CostP95, c.PruneRatioP50*100)
		if c.Rung != "" {
			line += " rung=" + c.Rung
		}
		if c.Drifting {
			line += " DRIFTING"
		}
		fmt.Fprintln(w, line)
	}
	s.metrics.Responses.With(strconv.Itoa(http.StatusOK)).Inc()
}

package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
	"repro/internal/obs"
)

// TestObservedDegradation pins the observable shape of one fault-injected
// ladder run: a slow exact rung under a tight per-rung deadline must produce
// exactly one exact-rung failure, one degradation with reason "deadline", a
// successful approximate rung — and the per-query trace must carry a span per
// attempted rung plus the degrade event. Run under -race this also proves the
// recording paths are data-race free against the pool workers.
func TestObservedDegradation(t *testing.T) {
	f := newFixture(t)
	const deadline = 50 * time.Millisecond
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 10 * time.Millisecond})

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := obs.NewTrace("mwq-faulted")
	ctx := obs.WithTrace(cancel.WithHook(context.Background(), inj), tr)

	costBefore := obs.Cost()
	r := NewRunner(f.e, Config{Timeout: deadline, Degrade: true, Store: f.store, Metrics: m})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		// The whole ladder can time out on a slow host; the counters must
		// then show a failure per attempted rung and no success.
		t.Skipf("ladder exhausted on this host: %v", err)
	}
	if !ans.Degraded || ans.Rung != RungApprox {
		t.Fatalf("expected a degraded approx answer, got rung=%v degraded=%v", ans.Rung, ans.Degraded)
	}

	if got := m.RungAttempts.With("exact").Value(); got != 1 {
		t.Errorf("exact attempts = %d, want 1", got)
	}
	if got := m.RungFailures.With("exact").Value(); got != 1 {
		t.Errorf("exact failures = %d, want 1", got)
	}
	if got := m.RungAttempts.With("approx").Value(); got != 1 {
		t.Errorf("approx attempts = %d, want 1", got)
	}
	if got := m.RungFailures.With("approx").Value(); got != 0 {
		t.Errorf("approx failures = %d, want 0", got)
	}
	if got := m.Degradations.With("deadline").Value(); got != 1 {
		t.Errorf("deadline degradations = %d, want 1", got)
	}
	if got := m.RungDuration.Count(); got != 2 {
		t.Errorf("rung duration observations = %d, want 2", got)
	}
	if d := obs.Cost().Sub(costBefore); d.Degradations != 1 {
		t.Errorf("global degradation delta = %d, want 1", d.Degradations)
	}

	exact := spansNamed(tr, "rung.exact")
	if len(exact) != 1 {
		t.Fatalf("rung.exact spans = %d, want 1", len(exact))
	}
	if exact[0].End <= exact[0].Start {
		t.Errorf("rung.exact span has no duration: %+v", exact[0])
	}
	if got := len(spansNamed(tr, "rung.approx")); got != 1 {
		t.Errorf("rung.approx spans = %d, want 1", got)
	}
	events := 0
	for _, e := range tr.Events() {
		if e.Name == "degrade" {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("degrade events = %d, want 1", events)
	}
}

// spansNamed returns tr's spans called name.
func spansNamed(tr *obs.Trace, name string) []obs.Span {
	var out []obs.Span
	for _, s := range tr.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestObservedPanicReason: an injected panic in the exact rung must be
// recovered, classified as reason "panic", and still produce a degraded
// answer on a healthy fallback rung.
func TestObservedPanicReason(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, OnVisit: 2, Panic: "injected: corrupt node"})
	m := NewMetrics(nil)
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Degrade: true, Store: f.store, Metrics: m})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		t.Fatalf("healthy fallback rung failed: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("panicking exact rung answered undegraded")
	}
	if got := m.Degradations.With("panic").Value(); got != 1 {
		t.Errorf("panic degradations = %d, want 1", got)
	}
	if got := m.RungFailures.With("exact").Value(); got != 1 {
		t.Errorf("exact failures = %d, want 1", got)
	}
}

// TestRunnerNilMetrics: the zero Config records nothing and must not panic
// anywhere on the recording paths.
func TestRunnerNilMetrics(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.e, Config{Timeout: 30 * time.Second, Degrade: true, Store: f.store})
	if _, err := r.MWQ(context.Background(), f.ct, f.q, f.rsl); err != nil {
		t.Fatal(err)
	}
}

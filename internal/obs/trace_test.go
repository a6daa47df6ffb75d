package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.AddSpan("x", 0, 1) // must not panic
	tr.Event("e", "d")
	tr.Eventf("e", "%d", 1)
	if tr.Spans() != nil || tr.Events() != nil {
		t.Fatal("nil trace must report nothing")
	}
	if ds, de := tr.Dropped(); ds != 0 || de != 0 {
		t.Fatal("nil trace must report no drops")
	}
	var sb strings.Builder
	tr.Format(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil trace must format to nothing")
	}
}

func TestTraceSpansAndEvents(t *testing.T) {
	var fake int64
	restore := SetClockForTest(func() int64 { fake += 100; return fake })
	defer restore()

	tr := NewTrace("mwq")
	start := Now()
	tr.Event("degraded", "rung exact: deadline")
	tr.AddSpan("saferegion.exact", start, Now())
	tr.AddSpan("mwq.corners", 50, 75)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Sorted by start: the explicit span starts at 50.
	if spans[0].Name != "mwq.corners" || spans[0].Duration() != 25*time.Nanosecond {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[1].Name != "saferegion.exact" || spans[1].Duration() <= 0 {
		t.Fatalf("span[1] = %+v", spans[1])
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "degraded" || evs[0].Detail != "rung exact: deadline" {
		t.Fatalf("events = %+v", evs)
	}

	var sb strings.Builder
	tr.Format(&sb)
	out := sb.String()
	for _, want := range []string{"trace mwq:", "saferegion.exact", "mwq.corners", "degraded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTraceOverflowCountsDrops(t *testing.T) {
	tr := NewTrace("overflow")
	for i := 0; i < maxSpans+10; i++ {
		tr.AddSpan("s", int64(i), int64(i+1))
	}
	for i := 0; i < maxEvents+5; i++ {
		tr.Event("e", "")
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("spans = %d, want clamped %d", got, maxSpans)
	}
	if got := len(tr.Events()); got != maxEvents {
		t.Fatalf("events = %d, want clamped %d", got, maxEvents)
	}
	ds, de := tr.Dropped()
	if ds != 10 || de != 5 {
		t.Fatalf("dropped = (%d, %d), want (10, 5)", ds, de)
	}
	var sb strings.Builder
	tr.Format(&sb)
	if !strings.Contains(sb.String(), "dropped 10 spans, 5 events") {
		t.Fatalf("Format must note drops:\n%.200s", sb.String())
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("conc")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.AddSpan("s", Now(), Now())
				tr.Event("e", "x")
			}
		}()
	}
	// Read while writers are active: must be race-free and never return
	// half-written slots.
	for i := 0; i < 100; i++ {
		for _, s := range tr.Spans() {
			if s.Name != "s" {
				t.Fatalf("torn span read: %+v", s)
			}
		}
	}
	wg.Wait()
	spans, events := tr.Spans(), tr.Events()
	ds, de := tr.Dropped()
	if uint64(len(spans))+ds != workers*50 {
		t.Fatalf("spans recorded+dropped = %d+%d, want %d", len(spans), ds, workers*50)
	}
	if uint64(len(events))+de != workers*50 {
		t.Fatalf("events recorded+dropped = %d+%d, want %d", len(events), de, workers*50)
	}
}

func TestTraceContextRoundtrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("plain context must carry no trace")
	}
	if TraceFrom(nil) != nil {
		t.Fatal("nil context must carry no trace")
	}
	tr := NewTrace("op")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace must round-trip through context")
	}
	// nil trace attaches nothing.
	if TraceFrom(WithTrace(context.Background(), nil)) != nil {
		t.Fatal("nil trace must not be attached")
	}
}

func TestExecMetricsContextRoundtrip(t *testing.T) {
	if ExecFrom(context.Background()) != nil || ExecFrom(nil) != nil {
		t.Fatal("plain/nil context must carry no exec metrics")
	}
	m := NewExecMetrics(nil)
	ctx := WithExecMetrics(context.Background(), m)
	if ExecFrom(ctx) != m {
		t.Fatal("exec metrics must round-trip through context")
	}
	// Registry-less metrics are all nil but usable.
	m.Fanouts.Inc()
	m.QueueWait.Observe(0.1)
}

func TestClockMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("clock went backwards: %d then %d", a, b)
	}
	if Since(a) < 0 || SecondsSince(a) < 0 {
		t.Fatal("Since must be non-negative")
	}
}

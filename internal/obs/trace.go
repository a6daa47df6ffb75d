package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Trace capacities. Fixed-size arrays keep recording allocation-free and
// lock-free; overruns are counted, not grown — a per-query trace that needs
// more than this is telling you to look at the counters instead.
const (
	maxSpans  = 64
	maxEvents = 128
)

// traceSpansDropped / traceEventsDropped accumulate overflow across every
// trace in the process, so silent span loss is visible on /metrics even after
// the individual (per-query) traces are gone. Per-trace counts stay on the
// Trace (Dropped / Truncated) for flight-record attribution.
var (
	traceSpansDropped  atomic.Uint64
	traceEventsDropped atomic.Uint64
)

// RegisterTraceHealth exposes the process-wide trace overflow counters on a
// registry.
func RegisterTraceHealth(r *Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("trace_spans_dropped_total",
		"spans lost to the fixed per-trace capacity (trace marked truncated)",
		traceSpansDropped.Load)
	r.CounterFunc("trace_events_dropped_total",
		"events lost to the fixed per-trace capacity (trace marked truncated)",
		traceEventsDropped.Load)
}

// Span is one completed timed phase of a query (e.g. "saferegion.exact",
// "rung.approx"). Start/End are Now timestamps (nanoseconds since process
// start).
type Span struct {
	Name  string
	Start int64
	End   int64
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Event is one annotated instant (e.g. a degradation with its reason).
type Event struct {
	At     int64
	Name   string
	Detail string
}

// spanSlot / eventSlot publish their fields through the ready flag: writers
// fill the fields first and set ready last, readers check ready first — the
// atomic store/load pair gives the happens-before edge that makes concurrent
// recording and reading race-free.
type spanSlot struct {
	ready atomic.Bool
	span  Span
}

type eventSlot struct {
	ready atomic.Bool
	event Event
}

// Trace is a lock-free per-query span and event recorder. Reservation is one
// atomic add; recording writes a pre-allocated slot. A nil *Trace is valid
// and reduces every method to a nil check, so instrumented code paths need no
// "is tracing on" branches. Recording from multiple goroutines (parallel
// safe-region workers) is safe; so is reading while a query is in flight.
type Trace struct {
	// Op names the traced operation (e.g. "mwq").
	Op string
	// Start is the Now timestamp of NewTrace.
	Start int64

	nspans  atomic.Int32
	spans   [maxSpans]spanSlot
	nevents atomic.Int32
	events  [maxEvents]eventSlot

	droppedSpans  atomic.Uint64
	droppedEvents atomic.Uint64
}

// NewTrace starts a trace for one query.
func NewTrace(op string) *Trace {
	return &Trace{Op: op, Start: Now()}
}

// AddSpan records a completed phase with explicit timestamps. Spans are
// published at completion, so an in-flight phase is invisible to readers.
func (t *Trace) AddSpan(name string, start, end int64) {
	if t == nil {
		return
	}
	idx := t.nspans.Add(1) - 1
	if idx >= maxSpans {
		// The reservation counter stays inflated; readers clamp to capacity.
		t.droppedSpans.Add(1)
		traceSpansDropped.Add(1)
		return
	}
	t.spans[idx].span = Span{Name: name, Start: start, End: end}
	t.spans[idx].ready.Store(true)
}

// Event records an annotated instant.
func (t *Trace) Event(name, detail string) {
	if t == nil {
		return
	}
	idx := t.nevents.Add(1) - 1
	if idx >= maxEvents {
		t.droppedEvents.Add(1)
		traceEventsDropped.Add(1)
		return
	}
	t.events[idx].event = Event{At: Now(), Name: name, Detail: detail}
	t.events[idx].ready.Store(true)
}

// Eventf is Event with a formatted detail. The formatting cost is only paid
// on a live trace, never on the nil (disabled) one.
func (t *Trace) Eventf(name, format string, args ...any) {
	if t == nil {
		return
	}
	t.Event(name, fmt.Sprintf(format, args...))
}

// Spans returns the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.nspans.Load())
	if n > maxSpans {
		n = maxSpans
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		if t.spans[i].ready.Load() {
			out = append(out, t.spans[i].span)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Events returns the recorded events in time order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	n := int(t.nevents.Load())
	if n > maxEvents {
		n = maxEvents
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		if t.events[i].ready.Load() {
			out = append(out, t.events[i].event)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// Dropped returns how many spans and events exceeded the fixed capacities.
func (t *Trace) Dropped() (spans, events uint64) {
	if t == nil {
		return 0, 0
	}
	return t.droppedSpans.Load(), t.droppedEvents.Load()
}

// Truncated reports whether this trace lost any spans or events to the fixed
// capacities; flight records carry the flag so a sampled slow query whose
// trace overflowed is not mistaken for a complete picture.
func (t *Trace) Truncated() bool {
	if t == nil {
		return false
	}
	return t.droppedSpans.Load() > 0 || t.droppedEvents.Load() > 0
}

// Format writes a human-readable rendering: one line per span (offset from
// trace start, duration) and per event, merged in time order.
func (t *Trace) Format(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "trace %s:\n", t.Op)
	type line struct {
		at   int64
		text string
	}
	var lines []line
	for _, s := range t.Spans() {
		lines = append(lines, line{at: s.Start, text: fmt.Sprintf(
			"  span  +%-12s %-24s %s", time.Duration(s.Start-t.Start).Round(time.Microsecond),
			s.Name, s.Duration().Round(time.Microsecond))})
	}
	for _, e := range t.Events() {
		text := fmt.Sprintf("  event +%-12s %-24s %s",
			time.Duration(e.At-t.Start).Round(time.Microsecond), e.Name, e.Detail)
		lines = append(lines, line{at: e.At, text: text})
	}
	sort.SliceStable(lines, func(a, b int) bool { return lines[a].at < lines[b].at })
	for _, l := range lines {
		fmt.Fprintln(w, l.text)
	}
	if ds, de := t.Dropped(); ds > 0 || de > 0 {
		fmt.Fprintf(w, "  (dropped %d spans, %d events over capacity)\n", ds, de)
	}
}

type traceKey struct{}

// WithTrace returns a context carrying the trace; the instrumented entry
// points pick it up with TraceFrom.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace carried by ctx, or nil (the no-op trace).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

package flight

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config sizes and wires a Ledger. The zero value is usable: a 256-record
// ring, 1-in-64 head sampling, a 250ms absolute slow floor, no slow log, no
// registry, and no wall-clock anchor (records then carry only monotonic
// timestamps).
type Config struct {
	// Size is the ring capacity in records (default 256). Memory is bounded
	// by Size regardless of request rate; unsampled records are small, and
	// only sampled ones carry span dumps.
	Size int
	// HeadSampleEvery retains the trace of every Nth record (by record ID,
	// so the choice is deterministic and testable) as a healthy-query
	// baseline. Default 64; 1 retains everything.
	HeadSampleEvery int
	// Latency is the serving-latency histogram (seconds) the slow threshold
	// tracks — typically the server's request-duration histogram. Optional.
	Latency *obs.Histogram
	// Slowlog, when set, receives every sampled record as one JSON line.
	// The ledger counts write errors but never fails a request on them.
	Slowlog *SlowLog
	// Epoch is the wall-clock instant corresponding to obs.Now() == 0
	// (process start). When set, records carry an RFC3339 "ts". Callers
	// compute it once at startup as now minus the current obs.Now offset;
	// this package itself never reads the wall clock.
	Epoch time.Time
	// Registry, when set, registers the ledger's own meta-metrics
	// (flight_records_total, flight_sampled_total, ...) there.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = 256
	}
	if c.HeadSampleEvery <= 0 {
		c.HeadSampleEvery = 64
	}
	return c
}

// minSlow is the slow threshold's floor, and the whole threshold until
// Latency holds warmCount observations (see slowThreshold).
const (
	minSlow   = 250 * time.Millisecond
	warmCount = 100
)

// Ledger is the flight recorder: a ring of finished QueryRecords, a table of
// in-flight queries, and the tail-sampling decision. All methods are safe for
// concurrent use; a nil *Ledger is valid and records nothing.
type Ledger struct {
	cfg    Config
	nextID atomic.Uint64

	mu       sync.Mutex
	ring     []QueryRecord
	next     int // ring write cursor
	count    int // records in the ring (≤ len(ring))
	inflight map[uint64]*Active

	started  *obs.Counter
	finished *obs.LabeledCounter // by outcome
	sampled  *obs.LabeledCounter // by reason
	evicted  *obs.Counter
	logErrs  *obs.Counter
}

// New builds a Ledger from cfg (zero value fine, see Config).
func New(cfg Config) *Ledger {
	cfg = cfg.withDefaults()
	l := &Ledger{
		cfg:      cfg,
		ring:     make([]QueryRecord, cfg.Size),
		inflight: make(map[uint64]*Active),
	}
	if r := cfg.Registry; r != nil {
		l.started = r.Counter("flight_started_total", "Queries that entered the flight recorder.")
		l.finished = r.LabeledCounter("flight_records_total", "Finished flight records by outcome.", "outcome")
		l.sampled = r.LabeledCounter("flight_sampled_total", "Tail-sampled flight records by reason.", "reason")
		l.evicted = r.Counter("flight_ring_evictions_total", "Flight records overwritten by ring wraparound.")
		l.logErrs = r.Counter("flight_slowlog_errors_total", "Slow-query log write failures (records are kept in the ring regardless).")
		r.GaugeFunc("flight_inflight", "Queries currently executing.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(len(l.inflight))
		})
	} else {
		l.started = &obs.Counter{}
		l.finished = obs.NewLabeledCounter("outcome")
		l.sampled = obs.NewLabeledCounter("reason")
		l.evicted = &obs.Counter{}
		l.logErrs = &obs.Counter{}
	}
	return l
}

// Active is one in-flight query. The owning request goroutine fills it via
// the Set* methods and closes it with Finish; the inspector reads only the
// fields frozen at Begin plus the race-free trace, so no further
// synchronization is needed between them. A nil *Active (from a nil or
// disabled Ledger) is valid everywhere.
type Active struct {
	l *Ledger
	// trace is the record's own trace until Context adopts the caller's.
	trace atomic.Pointer[obs.Trace]
	// tally receives the query's counter flushes once Context has put it on
	// the query's context; nil (no counts) until then.
	tally *obs.Tally
	rec   QueryRecord
	done  atomic.Bool
}

// Begin opens a record. params is the raw parameter string (redacted on
// render; its digest always survives); workers is the parallelism serving
// the query, frozen here so the inspector can read it without racing. Run
// the query under Context's context, so the record gets its counts and
// spans.
func (l *Ledger) Begin(op, source, params string, workers int) *Active {
	if l == nil {
		return nil
	}
	a := &Active{l: l}
	tr := obs.NewTrace(op)
	a.trace.Store(tr)
	a.rec = QueryRecord{
		Schema:       SchemaVersion,
		ID:           l.nextID.Add(1),
		Source:       source,
		Op:           op,
		Params:       params,
		ParamsDigest: Digest(params),
		StartNS:      tr.Start,
		Workers:      workers,
		Admission:    "none",
	}
	l.started.Inc()
	l.mu.Lock()
	l.inflight[a.rec.ID] = a
	l.mu.Unlock()
	return a
}

// Context returns ctx carrying the record's tally — a child of any tally ctx
// already carries, so the counts also reach the enclosing query's — and a
// trace: ctx's own when it has one, which the record then adopts, else the
// record's. Call it once, on the goroutine that will call Finish, before the
// query runs; a nil Active returns ctx unchanged.
func (a *Active) Context(ctx context.Context) context.Context {
	if a == nil {
		return ctx
	}
	a.tally = obs.NewTally(obs.TallyFrom(ctx))
	ctx = obs.WithTally(ctx, a.tally)
	if tr := obs.TraceFrom(ctx); tr != nil {
		a.trace.Store(tr)
		return ctx
	}
	return obs.WithTrace(ctx, a.trace.Load())
}

// Trace returns the record's trace (nil on a nil Active — still valid, obs
// treats nil traces as disabled).
func (a *Active) Trace() *obs.Trace {
	if a == nil {
		return nil
	}
	return a.trace.Load()
}

// SetAdmission records the admission verdict ("admitted", "shed:<reason>").
func (a *Active) SetAdmission(v string) {
	if a != nil {
		a.rec.Admission = v
	}
}

// SetQueueWait records time spent waiting for an admission slot.
func (a *Active) SetQueueWait(d time.Duration) {
	if a != nil {
		a.rec.QueueWaitMS = float64(d) / 1e6
	}
}

// SetRung records the rung that produced the answer and whether the ladder
// degraded to reach it.
func (a *Active) SetRung(rung string, degraded bool) {
	if a != nil {
		a.rec.Rung, a.rec.Degraded = rung, degraded
	}
}

// SetWALSeq records the WAL sequence that acknowledged a mutation.
func (a *Active) SetWALSeq(seq uint64) {
	if a != nil {
		a.rec.WALSeq = seq
	}
}

// SetSnapshotSeq records the serving snapshot the query ran against.
func (a *Active) SetSnapshotSeq(seq uint64) {
	if a != nil {
		a.rec.SnapshotSeq = seq
	}
}

// Finish closes the record: stamps duration, outcome, and the cost and cache
// counts its tally received, derives the rung ladder and degradation reasons
// from the trace, decides sampling, and commits to the ring (and slow log if
// sampled). Idempotent — the second and later calls are no-ops, so a blanket
// deferred Finish is safe alongside early-exit paths. Returns the final
// record and whether this call closed it.
func (a *Active) Finish(outcome, errMsg string) (QueryRecord, bool) {
	if a == nil || a.done.Swap(true) {
		return QueryRecord{}, false
	}
	l := a.l
	rec := &a.rec
	durNS := obs.Now() - rec.StartNS
	rec.DurationMS = float64(durNS) / 1e6
	rec.Outcome = outcome
	rec.Error = errMsg
	counts := a.tally.Counts()
	rec.Cost, rec.CacheHits, rec.CacheMisses = counts.CostSnapshot, counts.CacheHits, counts.CacheMisses
	tr := a.trace.Load()
	rec.Truncated = tr.Truncated()

	spans := tr.Spans()
	breaker := false
	for _, sp := range spans {
		if name, ok := strings.CutPrefix(sp.Name, "rung."); ok {
			rec.Attempts = append(rec.Attempts, RungAttempt{
				Rung:       name,
				DurationMS: float64(sp.End-sp.Start) / 1e6,
			})
		}
	}
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "degrade":
			rec.DegradeReasons = append(rec.DegradeReasons, ev.Detail)
		case "gate":
			breaker = true
		}
	}
	if reason, ok := l.sampleReason(rec, breaker, durNS); ok {
		rec.Sampled, rec.SampleReason = true, reason
		rec.Trace = dumpSpans(spans)
		rec.Events = dumpEvents(tr.Events())
	}
	if !l.cfg.Epoch.IsZero() {
		rec.TS = l.cfg.Epoch.Add(time.Duration(rec.StartNS)).UTC().Format(time.RFC3339Nano)
	}

	l.finished.With(outcome).Inc()
	if rec.Sampled {
		l.sampled.With(rec.SampleReason).Inc()
	}
	l.mu.Lock()
	delete(l.inflight, rec.ID)
	if l.count == len(l.ring) {
		l.evicted.Inc()
	} else {
		l.count++
	}
	l.ring[l.next] = *rec
	l.next = (l.next + 1) % len(l.ring)
	l.mu.Unlock()

	// Slow-log I/O happens outside the ring lock; a write failure is counted
	// but never surfaces to the request.
	if rec.Sampled && l.cfg.Slowlog != nil {
		if err := l.cfg.Slowlog.Write(rec); err != nil {
			l.logErrs.Inc()
		}
	}
	return *rec, true
}

// sampleReason decides trace retention. Bad outcomes and degraded/breaker-
// touched queries are always kept; healthy ones are kept when slow relative
// to the live p99, or as the deterministic 1-in-N head sample.
func (l *Ledger) sampleReason(rec *QueryRecord, breaker bool, durNS int64) (string, bool) {
	switch rec.Outcome {
	case OutcomeOK, OutcomeCanceled:
		// Cancellation is the client hanging up, not the system misbehaving;
		// it falls through to the slow/head rules like a healthy record.
	case OutcomeShed:
		return SampleShed, true
	default:
		return SampleError, true
	}
	if rec.Degraded || len(rec.DegradeReasons) > 0 {
		return SampleDegraded, true
	}
	if breaker {
		return SampleBreaker, true
	}
	if time.Duration(durNS) >= l.slowThreshold() {
		return SampleSlow, true
	}
	if rec.ID%uint64(l.cfg.HeadSampleEvery) == 0 {
		return SampleHead, true
	}
	return "", false
}

// slowThreshold is the live p99 once the latency histogram has warmed up,
// floored at minSlow (which also covers the cold start and the
// no-histogram configuration).
func (l *Ledger) slowThreshold() time.Duration {
	h := l.cfg.Latency
	if h.Count() < warmCount {
		return minSlow
	}
	return max(time.Duration(h.Quantile(0.99)*float64(time.Second)), minSlow)
}

func dumpSpans(spans []obs.Span) []TraceSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]TraceSpan, len(spans))
	for i, sp := range spans {
		out[i] = TraceSpan{
			Name:       sp.Name,
			StartNS:    sp.Start,
			DurationMS: float64(sp.End-sp.Start) / 1e6,
		}
	}
	return out
}

func dumpEvents(events []obs.Event) []TraceEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(events))
	for i, ev := range events {
		out[i] = TraceEvent{Name: ev.Name, Detail: ev.Detail, AtNS: ev.At}
	}
	return out
}

// Recent returns finished records newest-first; max ≤ 0 returns everything
// in the ring. The returned slice is a copy — callers may redact in place.
func (l *Ledger) Recent(max int) []QueryRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.count
	if max > 0 && max < n {
		n = max
	}
	out := make([]QueryRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + len(l.ring)*2) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

// InFlightInfo is one currently-executing query as seen by the inspector.
// Phase is the latest *completed* span (spans publish at completion), so a
// query still in its first phase shows "-".
type InFlightInfo struct {
	ID           uint64  `json:"id"`
	Op           string  `json:"op"`
	Source       string  `json:"source"`
	ParamsDigest string  `json:"params_digest,omitempty"`
	StartNS      int64   `json:"start_ns"`
	AgeMS        float64 `json:"age_ms"`
	Phase        string  `json:"phase"`
	Workers      int     `json:"workers,omitempty"`
	Spans        int     `json:"spans"`
}

// InFlight returns the currently-executing queries, oldest first.
func (l *Ledger) InFlight() []InFlightInfo {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	acts := make([]*Active, 0, len(l.inflight))
	for _, a := range l.inflight {
		acts = append(acts, a)
	}
	l.mu.Unlock()

	now := obs.Now()
	out := make([]InFlightInfo, 0, len(acts))
	for _, a := range acts {
		info := InFlightInfo{
			ID:           a.rec.ID,
			Op:           a.rec.Op,
			Source:       a.rec.Source,
			ParamsDigest: a.rec.ParamsDigest,
			StartNS:      a.rec.StartNS,
			AgeMS:        float64(now-a.rec.StartNS) / 1e6,
			Phase:        "-",
			Workers:      a.rec.Workers,
		}
		spans := a.trace.Load().Spans()
		info.Spans = len(spans)
		var latest int64 = -1
		for _, sp := range spans {
			if sp.End >= latest {
				latest, info.Phase = sp.End, sp.Name
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Totals is the ledger's record accounting. Started == Finished once every
// begun request has closed its record (the invariant the chaos harness and
// the race test assert).
type Totals struct {
	Started   uint64            `json:"started"`
	Finished  uint64            `json:"finished"`
	InFlight  int               `json:"in_flight"`
	Evicted   uint64            `json:"ring_evictions"`
	Sampled   map[string]uint64 `json:"sampled_by_reason,omitempty"`
	ByOutcome map[string]uint64 `json:"by_outcome,omitempty"`
	LogErrors uint64            `json:"slowlog_errors"`
}

// Totals returns the current accounting counters.
func (l *Ledger) Totals() Totals {
	if l == nil {
		return Totals{}
	}
	l.mu.Lock()
	inflight := len(l.inflight)
	l.mu.Unlock()
	t := Totals{
		Started:   l.started.Value(),
		InFlight:  inflight,
		Evicted:   l.evicted.Value(),
		Sampled:   l.sampled.Values(),
		ByOutcome: l.finished.Values(),
		LogErrors: l.logErrs.Value(),
	}
	for _, n := range t.ByOutcome {
		t.Finished += n
	}
	return t
}

// StatusValue renders the ledger's configuration and accounting for
// /v1/admin/status.
func (l *Ledger) StatusValue() map[string]any {
	if l == nil {
		return nil
	}
	return map[string]any{
		"ring_size":         len(l.ring),
		"head_sample_every": l.cfg.HeadSampleEvery,
		"slow_threshold_ms": float64(l.slowThreshold()) / 1e6,
		"totals":            l.Totals(),
	}
}

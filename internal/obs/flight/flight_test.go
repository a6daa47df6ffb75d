package flight

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock pins obs.Now for a test and returns an advance function.
func fakeClock(t *testing.T, start time.Duration) func(d time.Duration) {
	t.Helper()
	now := int64(start)
	restore := obs.SetClockForTest(func() int64 { return now })
	t.Cleanup(restore)
	return func(d time.Duration) { now += int64(d) }
}

func finishOne(l *Ledger, outcome string) QueryRecord {
	a := l.Begin("op", "test", "", 0)
	rec, _ := a.Finish(outcome, "")
	return rec
}

func TestRingWraparoundAndRecentOrder(t *testing.T) {
	l := New(Config{Size: 4, HeadSampleEvery: 1 << 20})
	for i := 0; i < 6; i++ {
		finishOne(l, OutcomeOK)
	}
	got := l.Recent(0)
	if len(got) != 4 {
		t.Fatalf("Recent(0) returned %d records, want ring size 4", len(got))
	}
	for i, wantID := range []uint64{6, 5, 4, 3} {
		if got[i].ID != wantID {
			t.Errorf("Recent[%d].ID = %d, want %d (newest first)", i, got[i].ID, wantID)
		}
	}
	if got := l.Recent(2); len(got) != 2 || got[0].ID != 6 {
		t.Errorf("Recent(2) = %d records starting at ID %d, want 2 starting at 6", len(got), got[0].ID)
	}
	tot := l.Totals()
	if tot.Started != 6 || tot.Finished != 6 || tot.Evicted != 2 || tot.InFlight != 0 {
		t.Errorf("totals = %+v, want started=finished=6, evicted=2, inflight=0", tot)
	}
}

// TestSamplerRetainsBadOutcomes is the tail sampler's contract: every shed,
// errored, deadline or unavailable record — and every degraded or breaker-
// touched one — keeps its trace, no matter how the head sampler is tuned.
func TestSamplerRetainsBadOutcomes(t *testing.T) {
	l := New(Config{HeadSampleEvery: 1 << 20}) // head sampling effectively off
	cases := []struct {
		outcome string
		reason  string
	}{
		{OutcomeError, SampleError},
		{OutcomeDeadline, SampleError},
		{OutcomeUnavailable, SampleError},
		{OutcomeShed, SampleShed},
	}
	for _, tc := range cases {
		rec := finishOne(l, tc.outcome)
		if !rec.Sampled || rec.SampleReason != tc.reason {
			t.Errorf("outcome %q: sampled=%v reason=%q, want sampled with reason %q",
				tc.outcome, rec.Sampled, rec.SampleReason, tc.reason)
		}
	}

	// Degraded-but-successful answers are kept too.
	a := l.Begin("mwq", "test", "", 0)
	a.SetRung("mwp", true)
	if rec, _ := a.Finish(OutcomeOK, ""); !rec.Sampled || rec.SampleReason != SampleDegraded {
		t.Errorf("degraded ok record: sampled=%v reason=%q, want degraded", rec.Sampled, rec.SampleReason)
	}

	// A breaker veto shows up as a "gate" trace event.
	a = l.Begin("mwq", "test", "", 0)
	a.Trace().Event("gate", "exact rung skipped: breaker open")
	if rec, _ := a.Finish(OutcomeOK, ""); !rec.Sampled || rec.SampleReason != SampleBreaker {
		t.Errorf("breaker record: sampled=%v reason=%q, want breaker", rec.Sampled, rec.SampleReason)
	}

	// Healthy fast records with head sampling off are NOT kept, and
	// cancellations are the client's choice, not a bad outcome.
	if rec := finishOne(l, OutcomeOK); rec.Sampled {
		t.Errorf("healthy record sampled (reason %q), want unsampled", rec.SampleReason)
	}
	if rec := finishOne(l, OutcomeCanceled); rec.Sampled {
		t.Errorf("canceled record sampled (reason %q), want unsampled", rec.SampleReason)
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	l := New(Config{HeadSampleEvery: 3})
	var sampledIDs []uint64
	for i := 0; i < 7; i++ {
		if rec := finishOne(l, OutcomeOK); rec.Sampled {
			if rec.SampleReason != SampleHead {
				t.Errorf("record %d: reason %q, want head", rec.ID, rec.SampleReason)
			}
			sampledIDs = append(sampledIDs, rec.ID)
		}
	}
	if len(sampledIDs) != 2 || sampledIDs[0] != 3 || sampledIDs[1] != 6 {
		t.Errorf("head-sampled IDs = %v, want [3 6] (every 3rd by record ID)", sampledIDs)
	}
}

func TestSlowSampling(t *testing.T) {
	advance := fakeClock(t, time.Hour)
	l := New(Config{HeadSampleEvery: 1 << 20}) // minSlow is 250ms

	a := l.Begin("op", "test", "", 0)
	advance(400 * time.Millisecond)
	if rec, _ := a.Finish(OutcomeOK, ""); !rec.Sampled || rec.SampleReason != SampleSlow {
		t.Errorf("400ms record: sampled=%v reason=%q, want slow (minSlow floor 250ms)", rec.Sampled, rec.SampleReason)
	}
	a = l.Begin("op", "test", "", 0)
	advance(100 * time.Millisecond)
	if rec, _ := a.Finish(OutcomeOK, ""); rec.Sampled {
		t.Errorf("100ms record sampled (reason %q), want unsampled below the floor", rec.SampleReason)
	}
}

// TestSlowThresholdTracksP99 checks the p99-relative rule: once the latency
// histogram warms up, "slow" means slow relative to live traffic, not the
// absolute floor.
func TestSlowThresholdTracksP99(t *testing.T) {
	advance := fakeClock(t, time.Hour)
	reg := obs.NewRegistry()
	hist := reg.Histogram("req_seconds", "test", nil)
	for i := 0; i < 200; i++ {
		hist.Observe(1.8) // p99 lands in a bucket ≥ 1.8s
	}
	l := New(Config{Latency: hist, HeadSampleEvery: 1 << 20})

	// 400ms is past the absolute floor but well under the live p99: healthy.
	a := l.Begin("op", "test", "", 0)
	advance(400 * time.Millisecond)
	if rec, _ := a.Finish(OutcomeOK, ""); rec.Sampled {
		t.Errorf("400ms record sampled (reason %q) though live p99 is ~2s", rec.SampleReason)
	}
	a = l.Begin("op", "test", "", 0)
	advance(5 * time.Second)
	if rec, _ := a.Finish(OutcomeOK, ""); !rec.Sampled || rec.SampleReason != SampleSlow {
		t.Errorf("5s record: sampled=%v reason=%q, want slow", rec.Sampled, rec.SampleReason)
	}
}

func TestFinishIdempotent(t *testing.T) {
	l := New(Config{})
	a := l.Begin("op", "test", "", 0)
	if _, done := a.Finish(OutcomeOK, ""); !done {
		t.Fatal("first Finish reported not-done")
	}
	if _, done := a.Finish(OutcomeError, "late"); done {
		t.Fatal("second Finish closed the record again")
	}
	tot := l.Totals()
	if tot.Finished != 1 || tot.ByOutcome[OutcomeError] != 0 {
		t.Errorf("totals after double Finish = %+v, want exactly one ok record", tot)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Ledger
	a := l.Begin("op", "test", "params", 3)
	if a != nil {
		t.Fatal("nil ledger returned a non-nil Active")
	}
	// Every method on the nil Active must be a no-op, not a panic.
	a.SetAdmission("admitted")
	a.SetQueueWait(time.Millisecond)
	a.SetRung("exact", false)
	a.SetWALSeq(1)
	a.SetSnapshotSeq(1)
	if ctx := context.Background(); a.Context(ctx) != ctx {
		t.Fatal("nil Active changed the context")
	}
	if _, done := a.Finish(OutcomeOK, ""); done {
		t.Fatal("nil Active Finish reported done")
	}
	if a.Trace() != nil {
		t.Fatal("nil Active returned a trace")
	}
	if l.Recent(0) != nil || l.InFlight() != nil || l.StatusValue() != nil {
		t.Fatal("nil ledger returned non-nil views")
	}
	if tot := l.Totals(); tot.Started != 0 {
		t.Fatal("nil ledger has totals")
	}
}

// TestRecordCountsItsOwnTally: a record's cost and cache counts are the
// flushes made under its Context, not process-global deltas — a flush under
// another record, or under no record, leaves it untouched.
func TestRecordCountsItsOwnTally(t *testing.T) {
	l := New(Config{})
	a := l.Begin("mwq", "test", "", 1)
	b := l.Begin("mwq", "test", "", 1)
	actx, bctx := a.Context(context.Background()), b.Context(context.Background())
	obs.Flush(actx, &obs.Counts{CostSnapshot: obs.CostSnapshot{DominanceTests: 3}, CacheHits: 2, CacheMisses: 1})
	obs.Flush(bctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{DominanceTests: 100}})
	obs.Flush(context.Background(), &obs.Counts{CostSnapshot: obs.CostSnapshot{DominanceTests: 1000}})
	rec, _ := a.Finish(OutcomeOK, "")
	if rec.Cost != (obs.CostSnapshot{DominanceTests: 3}) || rec.CacheHits != 2 || rec.CacheMisses != 1 {
		t.Fatalf("record counts = %+v hits=%d misses=%d, want its own 3 tests, 2 hits, 1 miss", rec.Cost, rec.CacheHits, rec.CacheMisses)
	}
	b.Finish(OutcomeOK, "")
}

// TestRecordAdoptsCallerTrace: under a context that already carries a trace,
// the record records into that trace, so its rung attempts come from the
// spans the query actually recorded.
func TestRecordAdoptsCallerTrace(t *testing.T) {
	l := New(Config{HeadSampleEvery: 1})
	tr := obs.NewTrace("mwq")
	a := l.Begin("mwq", "test", "", 1)
	ctx := a.Context(obs.WithTrace(context.Background(), tr))
	if obs.TraceFrom(ctx) != tr || a.Trace() != tr {
		t.Fatal("the record did not adopt the caller's trace")
	}
	tr.AddSpan("rung.exact", 1, 2)
	rec, _ := a.Finish(OutcomeOK, "")
	if len(rec.Attempts) != 1 || len(rec.Trace) != 1 {
		t.Fatalf("record attempts %+v, trace %+v; want the caller's rung.exact span", rec.Attempts, rec.Trace)
	}
}

func TestRungAttemptsAndDegradeReasonsFromTrace(t *testing.T) {
	l := New(Config{HeadSampleEvery: 1 << 20})
	a := l.Begin("mwq", "test", "q=1,2 c=3", 2)
	tr := a.Trace()
	tr.AddSpan("rung.exact", obs.Now(), obs.Now())
	tr.Eventf("degrade", "exact rung failed (%s), falling through", "panic: boom")
	tr.AddSpan("rung.mwp", obs.Now(), obs.Now())
	a.SetRung("mwp", true)
	rec, _ := a.Finish(OutcomeOK, "")

	if len(rec.Attempts) != 2 || rec.Attempts[0].Rung != "exact" || rec.Attempts[1].Rung != "mwp" {
		t.Errorf("attempts = %+v, want [exact mwp] from the rung.* spans", rec.Attempts)
	}
	if len(rec.DegradeReasons) != 1 || !strings.Contains(rec.DegradeReasons[0], "panic: boom") {
		t.Errorf("degrade reasons = %v, want the degrade event detail", rec.DegradeReasons)
	}
	if !rec.Sampled || rec.SampleReason != SampleDegraded {
		t.Errorf("sampled=%v reason=%q, want degraded", rec.Sampled, rec.SampleReason)
	}
	if len(rec.Trace) == 0 || len(rec.Events) == 0 {
		t.Error("sampled record did not retain its span/event dump")
	}
	if rec.ParamsDigest == "" || rec.ParamsDigest != Digest("q=1,2 c=3") {
		t.Errorf("params digest %q does not match Digest of the raw params", rec.ParamsDigest)
	}
}

func TestInFlightInspector(t *testing.T) {
	l := New(Config{})
	a := l.Begin("whynot", "http", "q=1", 4)
	defer a.Finish(OutcomeOK, "")

	infos := l.InFlight()
	if len(infos) != 1 {
		t.Fatalf("InFlight returned %d entries, want 1", len(infos))
	}
	if infos[0].Op != "whynot" || infos[0].Workers != 4 || infos[0].Phase != "-" {
		t.Errorf("in-flight entry = %+v, want op=whynot workers=4 phase=- before any span completes", infos[0])
	}
	a.Trace().AddSpan("membership", obs.Now(), obs.Now())
	if infos = l.InFlight(); infos[0].Phase != "membership" {
		t.Errorf("phase = %q after the membership span completed, want membership", infos[0].Phase)
	}
	if tot := l.Totals(); tot.InFlight != 1 {
		t.Errorf("totals in-flight = %d, want 1", tot.InFlight)
	}
}

func TestEpochStampsWallTime(t *testing.T) {
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	l := New(Config{Epoch: epoch})
	rec := finishOne(l, OutcomeOK)
	if rec.TS == "" {
		t.Fatal("record has no ts despite Config.Epoch")
	}
	ts, err := time.Parse(time.RFC3339Nano, rec.TS)
	if err != nil {
		t.Fatalf("ts %q is not RFC3339: %v", rec.TS, err)
	}
	if ts.Before(epoch) {
		t.Errorf("ts %v is before the epoch %v", ts, epoch)
	}
}

func TestSlowlogWriteAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	sl, err := OpenSlowLog(path, 600)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()

	l := New(Config{Slowlog: sl, HeadSampleEvery: 1}) // sample (and log) everything
	for i := 0; i < 12; i++ {
		finishOne(l, OutcomeOK)
	}
	if tot := l.Totals(); tot.LogErrors != 0 {
		t.Fatalf("%d slowlog write errors", tot.LogErrors)
	}

	checkLines := func(p string) int {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
		for _, line := range lines {
			var rec QueryRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad JSON line %q: %v", p, line, err)
			}
			if rec.Schema != SchemaVersion {
				t.Fatalf("%s: line with schema %d, want %d", p, rec.Schema, SchemaVersion)
			}
		}
		return len(lines)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("no rotated file after exceeding maxBytes: %v", err)
	}
	if n := checkLines(path) + checkLines(path+".1"); n == 0 || n > 12 {
		t.Errorf("slowlog holds %d lines across both files, want >0 and ≤12", n)
	}

	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := sl.Write(&QueryRecord{}); err == nil {
		t.Error("Write after Close succeeded")
	}
}

func TestSLOWindowMath(t *testing.T) {
	advance := fakeClock(t, 2*time.Hour)
	tr := NewSLOTracker([]Objective{
		{Op: "whynot", Latency: 100 * time.Millisecond, Target: 0.99},
	}, nil)

	for i := 0; i < 9; i++ {
		tr.Observe("whynot", 10*time.Millisecond, false)
	}
	tr.Observe("whynot", 10*time.Millisecond, true)   // failed outcome
	tr.Observe("rskyline", 10*time.Millisecond, true) // different op: ignored
	tr.Observe("whynot", 500*time.Millisecond, false) // slow: bad via Latency

	st := tr.Status()
	if len(st) != 1 {
		t.Fatalf("Status returned %d objectives, want 1", len(st))
	}
	w := st[0].Window5m
	if w.Good != 9 || w.Bad != 2 {
		t.Fatalf("5m window = %d good / %d bad, want 9/2", w.Good, w.Bad)
	}
	// Burn rate = badFraction / (1 − target) = (2/11) / 0.01.
	want := (2.0 / 11.0) / 0.01
	if diff := w.BurnRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("5m burn rate = %g, want %g", w.BurnRate, want)
	}

	// Six minutes later the 5m window has rotated clean; the 1h window still
	// remembers the bad minute.
	advance(6 * time.Minute)
	st = tr.Status()
	if w := st[0].Window5m; w.Good != 0 || w.Bad != 0 || w.BurnRate != 0 {
		t.Errorf("5m window after 6 minutes = %+v, want empty", w)
	}
	if w := st[0].Window1h; w.Good != 9 || w.Bad != 2 {
		t.Errorf("1h window after 6 minutes = %d good / %d bad, want 9/2", w.Good, w.Bad)
	}

	// Two hours later even the long window has rotated out.
	advance(2 * time.Hour)
	if w := tr.Status()[0].Window1h; w.Good != 0 || w.Bad != 0 {
		t.Errorf("1h window after 2 more hours = %+v, want empty", w)
	}
}

func TestSLOTrackerNil(t *testing.T) {
	if tr := NewSLOTracker(nil, nil); tr != nil {
		t.Fatal("tracker without objectives should be nil")
	}
	var tr *SLOTracker
	tr.Observe("whynot", time.Second, true) // must not panic
	if tr.Status() != nil {
		t.Fatal("nil tracker returned status")
	}
}

func TestParseObjectives(t *testing.T) {
	got, err := ParseObjectives("whynot:250ms:99.9, *:1s:99%")
	if err != nil {
		t.Fatal(err)
	}
	want := []Objective{
		{Op: "whynot", Latency: 250 * time.Millisecond, Target: 0.999},
		{Op: "*", Latency: time.Second, Target: 0.99},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d objectives, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Latency != want[i].Latency ||
			got[i].Target < want[i].Target-1e-12 || got[i].Target > want[i].Target+1e-12 {
			t.Errorf("objective %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	if got, err := ParseObjectives("  "); err != nil || got != nil {
		t.Errorf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"whynot:250ms",        // missing target
		"whynot:fast:99",      // bad duration
		":250ms:99",           // empty op
		"whynot:250ms:0",      // target at 0
		"whynot:250ms:100",    // target at 100
		"whynot:-1s:99",       // negative latency
		"whynot:250ms:ninety", // non-numeric target
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted invalid input", bad)
		}
	}
}

func TestClassifyErr(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeOK},
		{context.DeadlineExceeded, OutcomeDeadline},
		{context.Canceled, OutcomeCanceled},
		{errors.New("boom"), OutcomeError},
	}
	for _, tc := range cases {
		if got := ClassifyErr(tc.err); got != tc.want {
			t.Errorf("ClassifyErr(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestDigest(t *testing.T) {
	if Digest("") != "" {
		t.Error("empty params should digest to empty")
	}
	a, b := Digest("q=1,2 c=3"), Digest("q=1,2 c=3")
	if a != b || len(a) != 16 {
		t.Errorf("digest not stable 16-hex: %q vs %q", a, b)
	}
	if Digest("q=1,2 c=4") == a {
		t.Error("different params collided (FNV-1a should separate these)")
	}
}

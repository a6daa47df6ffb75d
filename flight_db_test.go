package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs/flight"
)

// TestDBFlightRecorder pins the embedded-use recorder: DBOptions.FlightSize
// turns on a per-DB ledger that records one QueryRecord, with Source "db",
// per query entering the DB through any entry point, context-free or
// Context, and the tail sampler keeps failed queries' traces exactly as the
// server's recorder does.
func TestDBFlightRecorder(t *testing.T) {
	items := fig1()
	q := NewPoint(8.5, 55)

	if NewDB(2, items).FlightRecorder() != nil {
		t.Fatal("flight recorder must be off unless DBOptions.FlightSize > 0")
	}

	db := NewDBWithOptions(2, items, DBOptions{FlightSize: 8})
	led := db.FlightRecorder()
	if led == nil {
		t.Fatal("FlightSize 8 left the recorder off")
	}
	if _, err := db.ReverseSkylineContext(context.Background(), items, q); err != nil {
		t.Fatalf("ReverseSkylineContext: %v", err)
	}
	tot := led.Totals()
	if tot.Started != 1 || tot.Finished != 1 || tot.InFlight != 0 {
		t.Fatalf("totals after one query = %+v, want 1 started / 1 finished", tot)
	}
	rec := led.Recent(1)[0]
	if rec.Source != "db" || rec.Op != "rsl" {
		t.Errorf("record source/op = %s/%s, want db/rsl", rec.Source, rec.Op)
	}
	if rec.Outcome != flight.OutcomeOK {
		t.Errorf("outcome = %q, want ok", rec.Outcome)
	}

	// Every entry point, in both forms, leaves exactly one record carrying
	// its op name.
	ct := items[0]
	rsl := db.ReverseSkyline(items, q)
	sr := db.SafeRegion(q, rsl)
	store := db.BuildApproxStore(rsl, 5)
	for _, tc := range []struct {
		name, op string
		call     func()
	}{
		{"DynamicSkyline", "dsl", func() { db.DynamicSkyline(q) }},
		{"DynamicSkylineContext", "dsl", func() { db.DynamicSkylineContext(bg, q) }},
		{"ReverseSkyline", "rsl", func() { db.ReverseSkyline(items, q) }},
		{"ReverseSkylineContext", "rsl", func() { db.ReverseSkylineContext(bg, items, q) }},
		{"IsReverseSkyline", "rsl-member", func() { db.IsReverseSkyline(ct, q) }},
		{"IsReverseSkylineContext", "rsl-member", func() { db.IsReverseSkylineContext(bg, ct, q) }},
		{"ReverseSkylineBBRS", "rsl-bbrs", func() { db.ReverseSkylineBBRS(q) }},
		{"ReverseSkylineBBRSContext", "rsl-bbrs", func() { db.ReverseSkylineBBRSContext(bg, q) }},
		{"Explain", "explain", func() { db.Explain(ct, q) }},
		{"ExplainContext", "explain", func() { db.ExplainContext(bg, ct, q) }},
		{"MWP", "mwp", func() { db.MWP(ct, q, Options{}) }},
		{"MWPContext", "mwp", func() { db.MWPContext(bg, ct, q, Options{}) }},
		{"MQP", "mqp", func() { db.MQP(ct, q, Options{}) }},
		{"MQPContext", "mqp", func() { db.MQPContext(bg, ct, q, Options{}) }},
		{"MQPTotalCost", "mqp-cost", func() { db.MQPTotalCost(q, ct.Point, rsl, sr, Options{}) }},
		{"MQPTotalCostContext", "mqp-cost", func() { db.MQPTotalCostContext(bg, q, ct.Point, rsl, sr, Options{}) }},
		{"SafeRegion", "saferegion", func() { db.SafeRegion(q, rsl) }},
		{"SafeRegionContext", "saferegion", func() { db.SafeRegionContext(bg, q, rsl) }},
		{"ApproxSafeRegionContext", "approx-saferegion", func() { db.ApproxSafeRegionContext(bg, q, rsl, store) }},
		{"AntiDominanceRegion", "antiddr", func() { db.AntiDominanceRegion(ct) }},
		{"AntiDominanceRegionContext", "antiddr", func() { db.AntiDominanceRegionContext(bg, ct) }},
		{"MWQ", "mwq", func() { db.MWQ(ct, q, sr, Options{}) }},
		{"MWQContext", "mwq", func() { db.MWQContext(bg, ct, q, sr, Options{}) }},
		{"MWQExact", "mwq", func() { db.MWQExact(ct, q, rsl, Options{}) }},
		{"MWQExactContext", "mwq", func() { db.MWQExactContext(bg, ct, q, rsl, Options{}) }},
		{"MWQApprox", "approx-mwq", func() { db.MWQApprox(ct, q, rsl, store, Options{}) }},
		{"MWQApproxContext", "approx-mwq", func() { db.MWQApproxContext(bg, ct, q, rsl, store, Options{}) }},
		{"MWQBatch", "mwq-batch", func() { db.MWQBatch([]Item{ct}, q, rsl, Options{}) }},
		{"MWQBatchContext", "mwq-batch", func() { db.MWQBatchContext(bg, []Item{ct}, q, rsl, Options{}) }},
		{"LostCustomers", "lost-customers", func() { db.LostCustomers(ct.Point, rsl) }},
		{"LostCustomersContext", "lost-customers", func() { db.LostCustomersContext(bg, ct.Point, rsl) }},
		{"BuildApproxStore", "buildstore", func() { db.BuildApproxStore(rsl, 5) }},
		{"BuildApproxStoreContext", "buildstore", func() { db.BuildApproxStoreContext(bg, rsl, 5) }},
		{"ValidateWhyNotMove", "validate-mwp", func() { db.ValidateWhyNotMove(ct, q, ct.Point, 1e-7) }},
		{"ValidateWhyNotMoveContext", "validate-mwp", func() { db.ValidateWhyNotMoveContext(bg, ct, q, ct.Point, 1e-7) }},
		{"ValidateQueryMove", "validate-mqp", func() { db.ValidateQueryMove(ct, q, 1e-7) }},
		{"ValidateQueryMoveContext", "validate-mqp", func() { db.ValidateQueryMoveContext(bg, ct, q, 1e-7) }},
	} {
		before := led.Totals().Finished
		tc.call()
		if got := led.Totals().Finished - before; got != 1 {
			t.Errorf("%s left %d flight records, want 1", tc.name, got)
			continue
		}
		if rec := led.Recent(1)[0]; rec.Op != tc.op {
			t.Errorf("%s record op = %q, want %q", tc.name, rec.Op, tc.op)
		}
	}

	// A query entering with a dead deadline fails at the boundary; its record
	// must classify the outcome and the tail sampler must keep it.
	ctx, cancelCtx := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelCtx()
	if _, err := db.ReverseSkylineContext(ctx, items, q); err == nil {
		t.Fatal("expired deadline accepted")
	}
	rec = led.Recent(1)[0]
	if rec.Outcome != flight.OutcomeDeadline {
		t.Errorf("outcome = %q, want deadline", rec.Outcome)
	}
	if !rec.Sampled {
		t.Error("failed query's record was not tail-sampled")
	}
}

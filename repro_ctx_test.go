package repro

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
)

// TestContextAPIPreCancelled drives every public Context method with a
// context that is already cancelled at the call boundary, on a DB built at
// every worker count. Each one must return an error that (a) unwraps to
// context.Canceled, (b) carries the "repro:" operation prefix, and (c) was
// produced without touching the index at all — zero R-tree node accesses,
// the package's definition of "zero algorithmic work".
func TestContextAPIPreCancelled(t *testing.T) {
	items := fig1()
	ref := NewDB(2, items)
	q := NewPoint(8.5, 55)
	ct := items[0]
	rsl := ref.ReverseSkyline(items, q)
	sr := ref.SafeRegion(q, rsl)
	store := ref.BuildApproxStore(rsl, 5)

	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()

	type ctxCall struct {
		name string
		call func(*DB, context.Context) error
	}
	calls := []ctxCall{
		{"DynamicSkylineContext", func(db *DB, c context.Context) error {
			_, err := db.DynamicSkylineContext(c, ct.Point)
			return err
		}},
		{"ReverseSkylineContext", func(db *DB, c context.Context) error {
			_, err := db.ReverseSkylineContext(c, items, q)
			return err
		}},
		{"IsReverseSkylineContext", func(db *DB, c context.Context) error {
			_, err := db.IsReverseSkylineContext(c, ct, q)
			return err
		}},
		{"ReverseSkylineBBRSContext", func(db *DB, c context.Context) error {
			_, err := db.ReverseSkylineBBRSContext(c, q)
			return err
		}},
		{"ExplainContext", func(db *DB, c context.Context) error {
			_, err := db.ExplainContext(c, ct, q)
			return err
		}},
		{"MWPContext", func(db *DB, c context.Context) error {
			_, err := db.MWPContext(c, ct, q, Options{})
			return err
		}},
		{"MQPContext", func(db *DB, c context.Context) error {
			_, err := db.MQPContext(c, ct, q, Options{})
			return err
		}},
		{"MQPTotalCostContext", func(db *DB, c context.Context) error {
			_, err := db.MQPTotalCostContext(c, q, ct.Point, rsl, sr, Options{})
			return err
		}},
		{"SafeRegionContext", func(db *DB, c context.Context) error {
			_, err := db.SafeRegionContext(c, q, rsl)
			return err
		}},
		{"ApproxSafeRegionContext", func(db *DB, c context.Context) error {
			_, err := db.ApproxSafeRegionContext(c, q, rsl, store)
			return err
		}},
		{"AntiDominanceRegionContext", func(db *DB, c context.Context) error {
			_, err := db.AntiDominanceRegionContext(c, ct)
			return err
		}},
		{"MWQContext", func(db *DB, c context.Context) error {
			_, err := db.MWQContext(c, ct, q, sr, Options{})
			return err
		}},
		{"MWQExactContext", func(db *DB, c context.Context) error {
			_, err := db.MWQExactContext(c, ct, q, rsl, Options{})
			return err
		}},
		{"MWQApproxContext", func(db *DB, c context.Context) error {
			_, err := db.MWQApproxContext(c, ct, q, rsl, store, Options{})
			return err
		}},
		{"MWQBatchContext", func(db *DB, c context.Context) error {
			_, err := db.MWQBatchContext(c, []Item{ct}, q, rsl, Options{})
			return err
		}},
		{"LostCustomersContext", func(db *DB, c context.Context) error {
			_, err := db.LostCustomersContext(c, ct.Point, rsl)
			return err
		}},
		{"BuildApproxStoreContext", func(db *DB, c context.Context) error {
			_, err := db.BuildApproxStoreContext(c, rsl, 5)
			return err
		}},
		{"ValidateWhyNotMoveContext", func(db *DB, c context.Context) error {
			_, err := db.ValidateWhyNotMoveContext(c, ct, q, ct.Point, 1e-7)
			return err
		}},
		{"ValidateQueryMoveContext", func(db *DB, c context.Context) error {
			_, err := db.ValidateQueryMoveContext(c, ct, q, 1e-7)
			return err
		}},
	}

	// The batch and store fan-outs are also checked on their own, on DBs
	// built at more than one worker only, so the cancelled context meets the
	// worker pool itself.
	fanOutCalls := []ctxCall{
		{"MWQBatchParallelContext", func(db *DB, c context.Context) error {
			_, err := db.MWQBatchContext(c, []Item{ct}, q, rsl, Options{})
			return err
		}},
		{"BuildApproxStoreParallelContext", func(db *DB, c context.Context) error {
			_, err := db.BuildApproxStoreContext(c, rsl, 5)
			return err
		}},
	}

	var dbs, fanOutDBs []*DB
	for _, w := range workerCounts() {
		db := NewDBWithOptions(2, items, DBOptions{Parallelism: w})
		dbs = append(dbs, db)
		if db.Workers() > 1 {
			fanOutDBs = append(fanOutDBs, db)
		}
	}
	if len(fanOutDBs) == 0 {
		t.Fatal("no DB was built at more than one worker")
	}
	run := func(calls []ctxCall, dbs []*DB) {
		for _, tc := range calls {
			t.Run(tc.name, func(t *testing.T) {
				for _, db := range dbs {
					tree := db.Engine().DB.Tree()
					tree.ResetAccesses()
					err := tc.call(db, ctx)
					if err == nil {
						t.Fatalf("workers=%d: pre-cancelled context returned no error", db.Workers())
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("workers=%d: error does not unwrap to context.Canceled: %v", db.Workers(), err)
					}
					if !strings.HasPrefix(err.Error(), "repro: ") {
						t.Fatalf("workers=%d: error lacks the repro: operation prefix: %v", db.Workers(), err)
					}
					if n := tree.Accesses(); n != 0 {
						t.Fatalf("workers=%d: pre-cancelled call touched the index: %d node accesses", db.Workers(), n)
					}
				}
			})
		}
	}
	run(calls, dbs)
	run(fanOutCalls, fanOutDBs)
}

// TestContextAPINilAndLiveContexts: a nil or never-cancelled context must
// behave exactly like the context-free API.
func TestContextAPINilAndLiveContexts(t *testing.T) {
	items := fig1()
	db := NewDB(2, items)
	q := NewPoint(8.5, 55)
	ct := items[0]

	want := db.MWP(ct, q, Options{})
	for name, ctx := range map[string]context.Context{
		"background": context.Background(),
		"nil":        nil,
	} {
		got, err := db.MWPContext(ctx, ct, q, Options{})
		if err != nil {
			t.Fatalf("%s context errored: %v", name, err)
		}
		if len(got.Candidates) != len(want.Candidates) || got.Best().Cost != want.Best().Cost {
			t.Fatalf("%s context changed the answer", name)
		}
	}
}

// TestContextAPIExpiredDeadline: a deadline that expires mid-flight is
// reported as DeadlineExceeded (distinct from Canceled).
func TestContextAPIExpiredDeadline(t *testing.T) {
	items := fig1()
	db := NewDB(2, items)
	q := NewPoint(8.5, 55)
	ctx, cancelCtx := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelCtx()
	_, err := db.SafeRegionContext(ctx, q, db.ReverseSkyline(items, q))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestCheckpointCountsPinned pins where the cancellation checkpoints fire on
// one reverse skyline plus one exact MWQ under a hook that never acts. The
// per-site visits and the pool's checkpoint counter are properties of the
// algorithms: they must not move with the worker count, between runs, or
// with the way each layer reaches its checker.
func TestCheckpointCountsPinned(t *testing.T) {
	items, err := GenerateDataset("CarDB", 5000, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := items[17].Point
	ref := NewDB(2, items)
	var ct Item
	for _, it := range items {
		member, err := ref.IsReverseSkylineContext(context.Background(), it, q)
		if err != nil {
			t.Fatal(err)
		}
		if !member {
			ct = it
			break
		}
	}
	want := map[string]uint64{
		cancel.SiteRTreeNode:  577,
		cancel.SiteCustomer:   5024,
		cancel.SiteSafeRegion: 343,
		cancel.SiteAntiDDR:    45,
		cancel.SiteMWQCorner:  1,
	}
	const wantCheckpoints = 419
	for _, workers := range []int{1, 2} {
		for run := 0; run < 3; run++ {
			db := NewDBWithOptions(2, items, DBOptions{Parallelism: workers, Observability: true})
			inj := faultinject.New()
			ctx := cancel.WithHook(context.Background(), inj)
			rsl, err := db.ReverseSkylineContext(ctx, items, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.MWQExactContext(ctx, ct, q, rsl, Options{}); err != nil {
				t.Fatal(err)
			}
			for site, n := range want {
				if got := inj.Visits(site); got != n {
					t.Errorf("workers=%d run=%d: %s visits = %d, want %d", workers, run, site, got, n)
				}
			}
			if got := db.PoolMetrics().Checkpoints.Value(); got != wantCheckpoints {
				t.Errorf("workers=%d run=%d: exec_checkpoints_total = %d, want %d", workers, run, got, wantCheckpoints)
			}
		}
	}
}

// TestBothFormsReachThePool: a context-free call and a Context call under a
// context that can never be cancelled run the same body, so the reverse
// skyline's verification fans out on the DB's worker pool in both.
func TestBothFormsReachThePool(t *testing.T) {
	items := fig1()
	q := NewPoint(8.5, 55)
	db := NewDBWithOptions(2, items, DBOptions{Parallelism: 2, Observability: true})
	fanouts := db.PoolMetrics().Fanouts
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"ReverseSkylineContext(Background)", func() { must(db.ReverseSkylineContext(context.Background(), items, q)) }},
		{"ReverseSkyline", func() { db.ReverseSkyline(items, q) }},
	} {
		before := fanouts.Value()
		tc.call()
		if fanouts.Value() == before {
			t.Errorf("%s: exec_fanouts_total did not grow", tc.name)
		}
	}
}

// TestBothFormsTraceAlike: the flight record of a context-free MWQExact
// carries the same phase spans as the one of MWQExactContext.
func TestBothFormsTraceAlike(t *testing.T) {
	items := fig1()
	q := NewPoint(8.5, 55)
	ct := items[6]
	db := NewDBWithOptions(2, items, DBOptions{FlightSize: 4})
	led := db.FlightRecorder()
	rsl := db.ReverseSkyline(items, q)
	// headSampled runs call as a record the ledger head-samples (every 64th
	// by ID), so its trace is retained whatever its latency.
	headSampled := func(call func()) []string {
		for (led.Totals().Started+1)%64 != 0 {
			must(db.ReverseSkylineContext(context.Background(), items, q))
		}
		call()
		rec := led.Recent(1)[0]
		if !rec.Sampled {
			t.Fatalf("record %d was not sampled", rec.ID)
		}
		var names []string
		for _, sp := range rec.Trace {
			names = append(names, sp.Name)
		}
		return names
	}
	free := headSampled(func() { db.MWQExact(ct, q, rsl, Options{}) })
	withCtx := headSampled(func() { must(db.MWQExactContext(context.Background(), ct, q, rsl, Options{})) })
	if len(withCtx) == 0 || !slices.Equal(free, withCtx) {
		t.Fatalf("MWQExact spans %v, MWQExactContext spans %v; want the same non-empty list", free, withCtx)
	}
}

// TestCallerTracedRecordKeepsSpans: a query run under the caller's own
// trace (StartTrace) still gets a flight record with its phase spans — the
// record adopts the caller's trace instead of keeping an unused one.
func TestCallerTracedRecordKeepsSpans(t *testing.T) {
	items := fig1()
	q := NewPoint(8.5, 55)
	ct := items[6]
	db := NewDBWithOptions(2, items, DBOptions{Observability: true, FlightSize: 4})
	led := db.FlightRecorder()
	rsl := db.ReverseSkyline(items, q)
	for (led.Totals().Started+1)%64 != 0 { // head-sample the traced call
		must(db.ReverseSkylineContext(context.Background(), items, q))
	}
	ctx, tr := db.StartTrace(context.Background(), "mwq")
	must(db.MWQExactContext(ctx, ct, q, rsl, Options{}))
	rec := led.Recent(1)[0]
	var names []string
	for _, sp := range rec.Trace {
		names = append(names, sp.Name)
	}
	var callerNames []string
	for _, sp := range tr.Spans() {
		callerNames = append(callerNames, sp.Name)
	}
	if !rec.Sampled || len(names) == 0 || !slices.Equal(names, callerNames) {
		t.Fatalf("record spans %v (sampled %v), caller's trace %v; want the same non-empty list", names, rec.Sampled, callerNames)
	}
}

// TestSharedContextAcrossGoroutines shares one cancellable, hooked context
// between goroutines that all query one fanned-out DB, and cancels it
// mid-flight. Each goroutine binds its own checker under the shared context,
// so under -race no checker is shared, and every call returns either its
// answer or context.Canceled.
func TestSharedContextAcrossGoroutines(t *testing.T) {
	items, err := GenerateDataset("CarDB", 2000, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	q := items[17].Point
	db := NewDBWithOptions(2, items, DBOptions{Parallelism: 2})
	rsl := db.ReverseSkyline(items, q)
	var ct Item
	for _, it := range items {
		if !db.IsReverseSkyline(it, q) {
			ct = it
			break
		}
	}
	wantRSL := idsOf(rsl)
	wantMWQ := db.MWQExact(ct, q, rsl, Options{}).Cost
	wantMWP := db.MWP(ct, q, Options{}).Best().Cost

	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteRTreeNode, OnVisit: 20_000, Do: cancelCtx})
	ctx = cancel.WithHook(ctx, inj)

	check := func(op string, err error, ok bool) {
		switch {
		case err == nil && !ok:
			t.Errorf("%s: wrong answer under a shared context", op)
		case err != nil && !errors.Is(err, context.Canceled):
			t.Errorf("%s: err = %v, want nil or context.Canceled", op, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				got, err := db.ReverseSkylineContext(ctx, items, q)
				check("ReverseSkylineContext", err, slices.Equal(idsOf(got), wantRSL))
				res, err := db.MWQExactContext(ctx, ct, q, rsl, Options{})
				check("MWQExactContext", err, res.Cost == wantMWQ)
				mwp, err := db.MWPContext(ctx, ct, q, Options{})
				check("MWPContext", err, err != nil || mwp.Best().Cost == wantMWP)
				batch, err := db.MWQBatchContext(ctx, []Item{ct, ct}, q, rsl, Options{})
				check("MWQBatchContext", err, len(batch) == 2 && batch[1].Cost == wantMWQ)
			}
		}()
	}
	wg.Wait()
	if inj.Visits(cancel.SiteRTreeNode) < 20_000 {
		t.Fatal("the context was never cancelled mid-flight")
	}
}

func idsOf(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

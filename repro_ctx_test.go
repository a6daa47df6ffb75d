package repro

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
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
// behave exactly like the legacy context-free API.
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

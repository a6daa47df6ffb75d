package repro

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestPhaseParityTraceAndPlan: every facade operation that opens a phase —
// and MWQ through the engine's degradation ladder — shows each phase once,
// under the same name, in its trace and in its plan, at one and two workers.
func TestPhaseParityTraceAndPlan(t *testing.T) {
	items := fig1()
	q := NewPoint(8.5, 55)
	ct := items[0] // customer 1: case C2, so MWQ runs every phase
	for _, workers := range []int{1, 2} {
		db := NewDBWithOptions(2, items, DBOptions{Parallelism: workers, Observability: true})
		rsl := db.ReverseSkyline(items, q)
		store := db.BuildApproxStore(rsl, 5)
		mwq := []string{"mwq", "mwq.overlap", "mwq.corners"}
		for _, tc := range []struct {
			op, rung string
			phases   []string
			run      func(context.Context) error
		}{
			{"explain", "", []string{"explain.window"}, func(ctx context.Context) error {
				_, err := db.ExplainContext(ctx, ct, q)
				return err
			}},
			{"mwp", "", []string{"mwp", "mwp.frontier", "mwp.candidates"}, func(ctx context.Context) error {
				_, err := db.MWPContext(ctx, ct, q, Options{})
				return err
			}},
			{"mqp", "", []string{"mqp"}, func(ctx context.Context) error {
				_, err := db.MQPContext(ctx, ct, q, Options{})
				return err
			}},
			{"mwq", "exact", append([]string{"saferegion.exact"}, mwq...), func(ctx context.Context) error {
				_, err := db.MWQExactContext(ctx, ct, q, rsl, Options{})
				return err
			}},
			{"approx-mwq", "approx", append([]string{"saferegion.approx"}, mwq...), func(ctx context.Context) error {
				_, err := db.MWQApproxContext(ctx, ct, q, rsl, store, Options{})
				return err
			}},
			{"ladder", "exact", append([]string{"rung.exact", "saferegion.exact"}, mwq...), func(ctx context.Context) error {
				r := engine.NewRunner(db.Engine(), engine.Config{Degrade: true, Store: store})
				_, err := r.MWQ(ctx, ct, q, rsl)
				return err
			}},
		} {
			ctx, tr := db.StartTrace(context.Background(), tc.op)
			ctx, finish := db.StartExplain(ctx, tc.op)
			if err := tc.run(ctx); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.op, err)
			}
			plan := finish(tc.rung)
			var spans, nodes []string
			for _, sp := range tr.Spans() {
				if sp.Name != "admission" {
					spans = append(spans, sp.Name)
				}
			}
			var walk func(n *ExplainNode)
			walk = func(n *ExplainNode) {
				for _, c := range n.Children {
					nodes = append(nodes, c.Name)
					walk(c)
				}
			}
			walk(plan.Root)
			want := slices.Clone(tc.phases)
			slices.Sort(want)
			slices.Sort(spans)
			slices.Sort(nodes)
			if !slices.Equal(spans, want) || !slices.Equal(nodes, want) {
				t.Errorf("workers=%d %s:\ntrace spans %v\nplan nodes  %v\nwant each of %v once in both",
					workers, tc.op, spans, nodes, want)
			}
		}
	}
}

// whyNotCases returns n distinct why-not questions on the catalogue: query
// points next to products and customers outside their reverse skylines.
func whyNotCases(db *DB, items []Item, n int) (qs []Point, cts []Item) {
	for i := 0; len(qs) < n; i++ {
		q := append(Point{}, items[(7*i+3)%len(items)].Point...)
		q[0] *= 1.03
		ct := items[(13*i+5)%len(items)]
		if !db.IsReverseSkyline(ct, q) {
			qs, cts = append(qs, q), append(cts, ct)
		}
	}
	return qs, cts
}

// tallyQueries are 16 distinct queries of mixed operations on one catalogue,
// each one facade call and so one flight record.
func tallyQueries(db *DB, items []Item) []func(context.Context) error {
	qs, cts := whyNotCases(db, items, 16)
	var out []func(context.Context) error
	for i, q := range qs {
		ct := cts[i]
		rsl := db.ReverseSkyline(items, q)
		var call func(context.Context) error
		switch len(out) % 4 {
		case 0:
			call = func(ctx context.Context) error { _, err := db.MWPContext(ctx, ct, q, Options{}); return err }
		case 1:
			call = func(ctx context.Context) error { _, err := db.MQPContext(ctx, ct, q, Options{}); return err }
		case 2:
			call = func(ctx context.Context) error {
				_, err := db.MWQExactContext(ctx, ct, q, rsl, Options{})
				return err
			}
		case 3:
			call = func(ctx context.Context) error { _, err := db.ReverseSkylineContext(ctx, items, q); return err }
		}
		out = append(out, call)
	}
	return out
}

// recordCosts returns the costs of the newest n flight records, sorted so
// two runs compare as multisets.
func recordCosts(db *DB, n int) []string {
	var out []string
	for _, rec := range db.FlightRecorder().Recent(n) {
		out = append(out, fmt.Sprintf("%s %+v", rec.Op, rec.Cost))
	}
	slices.Sort(out)
	return out
}

// TestFlightCostsExactUnderConcurrency: a query's flight record reports its
// own work. Sixteen distinct queries of mixed operations report the same
// multiset of costs run one at a time and all at once, at one and two
// workers (run it under -race: the tallies take concurrent flushes).
func TestFlightCostsExactUnderConcurrency(t *testing.T) {
	items, err := GenerateDataset("CarDB", 800, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		db := NewDBWithOptions(2, items, DBOptions{Parallelism: workers, FlightSize: 64})
		queries := tallyQueries(db, items)
		for _, run := range queries {
			if err := run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		alone := recordCosts(db, len(queries))
		for round := 0; round < 3; round++ {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, run := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := run(context.Background()); err != nil {
						t.Error(err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if together := recordCosts(db, len(queries)); !slices.Equal(alone, together) {
				t.Fatalf("workers=%d round %d: record costs differ when the queries run together\nalone:\n%v\ntogether:\n%v",
					workers, round, alone, together)
			}
		}
	}
}

// TestExplainPlanUnderLoad: an exact-MWQ plan renders the same, counters
// included, whether the query runs alone or beside three looping MWPs.
func TestExplainPlanUnderLoad(t *testing.T) {
	items, err := GenerateDataset("CarDB", 800, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(2, items)
	qs, cts := whyNotCases(db, items, 4)
	q, ct := qs[0], cts[0]
	rsl := db.ReverseSkyline(items, q)
	explainMWQ := func() string {
		_, plan, err := db.MWQExactExplain(context.Background(), ct, q, rsl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return plan.StableString()
	}
	alone := explainMWQ()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.MWPContext(context.Background(), cts[i], qs[i], Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 20; i++ {
		if got := explainMWQ(); got != alone {
			t.Fatalf("run %d: plan under load differs:\n--- alone ---\n%s--- under load ---\n%s", i, alone, got)
		}
	}
}

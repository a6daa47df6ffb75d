package server

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// TestServedRSLPhase: the served reverse skyline is one "rsl" phase. A
// why-not plan has exactly one rsl node, over every snapshot item, whose
// out is the response's rsl_size, and a traced why-not has exactly one rsl
// span.
func TestServedRSLPhase(t *testing.T) {
	s := newTestServer(t, nil)
	db, items := testDB(t, testDatasetN)
	q, ct, rsl := testQuery(t, db, items)
	body := fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d,"trace":true}`, q[0], q[1], ct.ID)

	w, resp := do(t, s, "POST", "/v1/whynot?explain=1", body)
	if w.Code != 200 {
		t.Fatalf("whynot = %d %v", w.Code, resp)
	}
	if got := int(resp["rsl_size"].(float64)); got != len(rsl) {
		t.Fatalf("rsl_size = %d, want %d", got, len(rsl))
	}
	var nodes []map[string]any
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		if n["name"] == "rsl" {
			nodes = append(nodes, n)
		}
		children, _ := n["children"].([]any)
		for _, c := range children {
			walk(c.(map[string]any))
		}
	}
	walk(resp["plan"].(map[string]any)["root"].(map[string]any))
	if len(nodes) != 1 {
		t.Fatalf("plan has %d rsl nodes, want 1:\n%s", len(nodes), resp["plan_text"])
	}
	if in, out := nodes[0]["in"].(float64), nodes[0]["out"].(float64); int(in) != testDatasetN || int(out) != len(rsl) {
		t.Errorf("rsl node in=%v out=%v, want in=%d out=%d", in, out, testDatasetN, len(rsl))
	}

	spans := 0
	for _, sp := range resp["trace"].([]any) {
		if sp.(map[string]any)["name"] == "rsl" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("trace has %d rsl spans, want 1: %v", spans, resp["trace"])
	}
}

// TestServedRSLOrderAndAnswers pins what the served reverse skyline hands
// out. On a dataset whose IDs are not in ascending file order,
// /v1/rskyline's customer_ids equal the facade's filtered reverse skyline
// over the snapshot items, member for member, and /v1/whynot answers what
// MWQExact answers on that RSL, before and after an insert and a delete.
func TestServedRSLOrderAndAnswers(t *testing.T) {
	gen, err := repro.GenerateDataset("UN", testDatasetN, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// IDs run down the file in a scrambled order, so snapshot order, ID
	// order and the BBRS traversal's discovery order all differ.
	items := make([]repro.Item, len(gen))
	for i, it := range gen {
		items[i] = repro.Item{ID: 1000 + (i*37)%len(gen), Point: it.Point}
	}
	d, err := dataset.New("scrambled", 2, items)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scrambled.csv")
	if err := d.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Dataset = DatasetSpec{Path: path}
		c.Workers = 2
		c.CacheSize = 64
	})
	queries := []repro.Point{
		repro.NewPoint(480, 520), repro.NewPoint(150, 850), repro.NewPoint(850, 150),
		repro.NewPoint(300, 300), repro.NewPoint(700, 700),
	}

	check := func(stage string) {
		t.Helper()
		snap := s.Snapshot()
		ref := repro.NewDB(2, snap.Items)
		ctx := context.Background()
		orderMatters := false
		for _, q := range queries {
			want, err := ref.ReverseSkylineContext(ctx, snap.Items, q)
			if err != nil {
				t.Fatal(err)
			}
			bbrs, err := ref.ReverseSkylineBBRSContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, bbrsIDs := idsOf(want), idsOf(bbrs)
			orderMatters = orderMatters || !slices.IsSorted(wantIDs) && !slices.Equal(wantIDs, bbrsIDs)

			w, resp := do(t, s, "POST", "/v1/rskyline", fmt.Sprintf(`{"q":[%g,%g]}`, q[0], q[1]))
			if w.Code != 200 {
				t.Fatalf("%s: rskyline %v = %d %v", stage, q, w.Code, resp)
			}
			var got []int
			for _, id := range resp["customer_ids"].([]any) {
				got = append(got, int(id.(float64)))
			}
			if !slices.Equal(got, wantIDs) {
				t.Errorf("%s: rskyline %v customer_ids = %v, want %v (snapshot order)", stage, q, got, wantIDs)
			}

			member := map[int]bool{}
			for _, it := range want {
				member[it.ID] = true
			}
			var ct repro.Item
			for _, it := range snap.Items {
				if !member[it.ID] {
					ct = it
					break
				}
			}
			exp, err := ref.MWQExactContext(ctx, ct, q, want, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w, resp = do(t, s, "POST", "/v1/whynot",
				fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID))
			if w.Code != 200 || resp["rung"] != "exact" {
				t.Fatalf("%s: whynot %v customer %d = %d %v", stage, q, ct.ID, w.Code, resp)
			}
			wantBody := map[string]any{
				"case": float64(exp.Case), "cost": exp.Cost, "rsl_size": float64(len(want)),
				"q_star": floats(exp.QStar), "ct_star": floats(exp.CtStar),
			}
			for k, v := range wantBody {
				if fmt.Sprint(resp[k]) != fmt.Sprint(v) {
					t.Errorf("%s: whynot %v customer %d: %s = %v, want %v", stage, q, ct.ID, k, resp[k], v)
				}
			}
		}
		if !orderMatters {
			t.Fatalf("%s: no query's RSL tells snapshot order from ID or traversal order", stage)
		}
	}

	check("boot")
	// The inserted product takes the smallest ID but the last position, and
	// joins RSL(480, 520).
	if w, resp := do(t, s, "POST", "/v1/admin/insert", `{"id":1,"point":[470,530]}`); w.Code != 200 {
		t.Fatalf("insert = %d %v", w.Code, resp)
	}
	check("after insert")
	snap := s.Snapshot()
	rsl := repro.NewDB(2, snap.Items).ReverseSkyline(snap.Items, queries[0])
	if len(rsl) < 2 || rsl[len(rsl)-1].ID != 1 {
		t.Fatalf("RSL%v after the insert = %v, want the inserted product last", queries[0], rsl)
	}
	// Deleting a member changes RSL(480, 520) again.
	if w, resp := do(t, s, "POST", "/v1/admin/delete", fmt.Sprintf(`{"id":%d}`, rsl[0].ID)); w.Code != 200 {
		t.Fatalf("delete = %d %v", w.Code, resp)
	}
	check("after delete")
}

func idsOf(items []repro.Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

// floats renders a point as the JSON decoder returns it; nil stays nil.
func floats(p repro.Point) any {
	if p == nil {
		return nil
	}
	out := make([]any, len(p))
	for i, v := range p {
		out[i] = v
	}
	return out
}

package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// overlapHook, once armed, holds every query at its first checkpoint until
// n queries have reached theirs, so the queries then run side by side.
type overlapHook struct {
	n       int32
	armed   atomic.Bool
	arrived atomic.Int32
	release chan struct{}
}

func newOverlapHook(n int32) *overlapHook {
	return &overlapHook{n: n, release: make(chan struct{})}
}

func (h *overlapHook) Visit(_ string, n uint64) {
	if n != 1 || !h.armed.Load() {
		return
	}
	if h.arrived.Add(1) == h.n {
		close(h.release)
	}
	select {
	case <-h.release:
	case <-time.After(5 * time.Second):
	}
}

// whyNot is one why-not request: its body and its flight-record params.
type whyNot struct{ body, params string }

func newWhyNot(q repro.Point, ct repro.Item) whyNot {
	return whyNot{
		body:   fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID),
		params: fmt.Sprintf("q=%v customer=%d", []float64(q), ct.ID),
	}
}

// concurrently serves every request at once on s and returns the decoded
// responses in request order.
func concurrently(t *testing.T, s *Server, path string, reqs []whyNot) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, resp := do(t, s, "POST", path, r.body)
			if w.Code != 200 {
				t.Errorf("%s %s = %d %v", path, r.body, w.Code, resp)
			}
			out[i] = resp
		}()
	}
	wg.Wait()
	return out
}

// recordsByParams returns the newest record of each request.
func recordsByParams(s *Server) map[string]flight.QueryRecord {
	out := map[string]flight.QueryRecord{}
	for _, rec := range s.FlightRecorder().Recent(0) {
		if _, seen := out[rec.Params]; !seen {
			out[rec.Params] = rec
		}
	}
	return out
}

// planCounters renders a response's plan without its timings, the part
// that must not depend on what else the server was doing.
func planCounters(t *testing.T, resp map[string]any) string {
	t.Helper()
	plan, ok := resp["plan"].(map[string]any)
	if !ok {
		t.Fatalf("response has no plan: %v", resp)
	}
	var strip func(n map[string]any)
	strip = func(n map[string]any) {
		delete(n, "actual_ns")
		delete(n, "est_ns")
		children, _ := n["children"].([]any)
		for _, c := range children {
			strip(c.(map[string]any))
		}
	}
	delete(plan, "total_ns")
	strip(plan["root"].(map[string]any))
	b, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentExplainPlansCountOwnWork: why-not plans served side by side
// carry the counters of the same requests served alone, and each request's
// flight record costs what its plan root does.
func TestConcurrentExplainPlansCountOwnWork(t *testing.T) {
	hook := newOverlapHook(3)
	s := newTestServer(t, func(c *Config) {
		c.Hook = hook
		c.Admission.MaxConcurrent = 8
	})
	db, items := testDB(t, testDatasetN)
	q, _, rsl := testQuery(t, db, items)
	member := map[int]bool{}
	for _, it := range rsl {
		member[it.ID] = true
	}
	var reqs []whyNot
	for _, it := range items {
		if !member[it.ID] && len(reqs) < 3 {
			reqs = append(reqs, newWhyNot(q, it))
		}
	}
	const path = "/v1/whynot?explain=1"
	alone := map[string]string{}
	for _, r := range reqs {
		w, resp := do(t, s, "POST", path, r.body)
		if w.Code != 200 {
			t.Fatalf("%s = %d %v", r.body, w.Code, resp)
		}
		alone[r.params] = planCounters(t, resp)
	}

	hook.armed.Store(true)
	resps := concurrently(t, s, path, reqs)
	waitFlightQuiesce(t, s)
	recs := recordsByParams(s)
	for i, r := range reqs {
		if got := planCounters(t, resps[i]); got != alone[r.params] {
			t.Errorf("%s: plan served alongside others differs:\nalone    %s\ntogether %s", r.params, alone[r.params], got)
		}
		var root struct {
			Root struct {
				Cost obs.CostSnapshot `json:"cost"`
			} `json:"root"`
		}
		b, _ := json.Marshal(resps[i]["plan"])
		if err := json.Unmarshal(b, &root); err != nil {
			t.Fatal(err)
		}
		if rec := recs[r.params]; rec.Cost != root.Root.Cost {
			t.Errorf("%s: record cost %+v, plan root cost %+v", r.params, rec.Cost, root.Root.Cost)
		}
	}
}

// TestConcurrentWhyNotsCountOwnCacheHits: two why-nots with disjoint, warm
// working sets, served side by side, each report only their own cache hits.
func TestConcurrentWhyNotsCountOwnCacheHits(t *testing.T) {
	hook := newOverlapHook(2)
	s := newTestServer(t, func(c *Config) {
		c.Hook = hook
		c.CacheSize = 1024
		c.Admission.MaxConcurrent = 8
	})
	db, items := testDB(t, testDatasetN)
	// The working set of a why-not is its reverse skyline (one anti-DDR
	// lookup each) plus the why-not customer (one DSL lookup).
	var qs []workingSet
	for _, q := range []repro.Point{repro.NewPoint(480, 520), repro.NewPoint(150, 850), repro.NewPoint(850, 150), repro.NewPoint(150, 150)} {
		ws := workingSet{ids: map[int]bool{}}
		for _, it := range db.ReverseSkyline(items, q) {
			ws.ids[it.ID] = true
		}
		for _, ct := range items {
			if !ws.ids[ct.ID] && !overlaps(qs, map[int]bool{ct.ID: true}) {
				ws.req = newWhyNot(q, ct)
				ws.ids[ct.ID] = true
				break
			}
		}
		if !overlaps(qs, ws.ids) {
			qs = append(qs, ws)
		}
	}
	if len(qs) < 2 {
		t.Fatal("no two why-not questions with disjoint working sets")
	}
	reqs := []whyNot{qs[0].req, qs[1].req}
	for _, r := range append(reqs, reqs...) { // the second pass runs warm
		if w, resp := do(t, s, "POST", "/v1/whynot", r.body); w.Code != 200 {
			t.Fatalf("%s = %d %v", r.body, w.Code, resp)
		}
	}
	waitFlightQuiesce(t, s)
	warm := recordsByParams(s)
	for _, r := range reqs {
		if rec := warm[r.params]; rec.CacheHits == 0 || rec.CacheMisses != 0 {
			t.Fatalf("%s: warm record hits=%d misses=%d, want hits only", r.params, rec.CacheHits, rec.CacheMisses)
		}
	}

	hook.armed.Store(true)
	concurrently(t, s, "/v1/whynot", reqs)
	waitFlightQuiesce(t, s)
	together := recordsByParams(s)
	for _, r := range reqs {
		want, got := warm[r.params], together[r.params]
		if got.ID == want.ID || got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
			t.Errorf("%s: served alongside the other, record #%d counts hits=%d misses=%d; alone it counted hits=%d misses=%d",
				r.params, got.ID, got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
		}
	}
}

// workingSet is a why-not request and the customers whose cached structures
// it looks up.
type workingSet struct {
	req whyNot
	ids map[int]bool
}

// overlaps reports whether ids shares a customer with a chosen working set.
func overlaps(chosen []workingSet, ids map[int]bool) bool {
	for _, c := range chosen {
		for id := range ids {
			if c.ids[id] {
				return true
			}
		}
	}
	return false
}

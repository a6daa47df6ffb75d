package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestWhyNotExplainResponse: ?explain=1 attaches the structured plan and its
// rendering to the response; without it the response stays lean — but the
// fingerprint store classifies every admitted query either way, and its
// classes survive a dataset hot-swap because the store lives on the server,
// not the snapshot.
func TestWhyNotExplainResponse(t *testing.T) {
	s := newTestServer(t, nil)
	db, items := testDB(t, testDatasetN)
	q, ct, _ := testQuery(t, db, items)
	body := fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID)

	w, resp := do(t, s, "POST", "/v1/whynot", body)
	if w.Code != 200 {
		t.Fatalf("whynot = %d: %v", w.Code, resp)
	}
	if _, ok := resp["plan"]; ok {
		t.Error("plan attached without explain=1")
	}

	w, resp = do(t, s, "POST", "/v1/whynot?explain=1", body)
	if w.Code != 200 {
		t.Fatalf("whynot?explain=1 = %d: %v", w.Code, resp)
	}
	plan, ok := resp["plan"].(map[string]any)
	if !ok {
		t.Fatalf("response has no structured plan: %v", resp)
	}
	if plan["op"] != "whynot" || plan["fingerprint"] == "" {
		t.Errorf("plan op/fingerprint = %v/%v", plan["op"], plan["fingerprint"])
	}
	text, _ := resp["plan_text"].(string)
	if !strings.HasPrefix(text, "plan whynot dims=2") || !strings.Contains(text, "rule=") {
		t.Errorf("plan_text = %q, want rendered tree", text)
	}

	w, resp = do(t, s, "GET", "/v1/debug/fingerprints", "")
	if w.Code != 200 {
		t.Fatalf("fingerprints = %d", w.Code)
	}
	classes, _ := resp["classes"].([]any)
	if len(classes) == 0 {
		t.Fatal("no fingerprint classes after two admitted queries")
	}
	c0 := classes[0].(map[string]any)
	if c0["op"] != "whynot" || c0["count"].(float64) < 2 {
		t.Errorf("class = %v, want op=whynot count>=2 (plans built even without explain=1)", c0)
	}

	// Hot-swap the dataset; the store must survive.
	w, resp = do(t, s, "POST", "/v1/admin/reload",
		fmt.Sprintf(`{"generate":{"kind":"UN","n":%d,"dims":2,"seed":7}}`, testDatasetN))
	if w.Code != 200 {
		t.Fatalf("reload = %d: %v", w.Code, resp)
	}
	w, resp = do(t, s, "GET", "/v1/debug/fingerprints", "")
	if w.Code != 200 {
		t.Fatalf("fingerprints after reload = %d", w.Code)
	}
	if after, _ := resp["classes"].([]any); len(after) != len(classes) {
		t.Errorf("reload dropped fingerprint classes: %d -> %d", len(classes), len(after))
	}

	req := httptest.NewRequest("GET", "/v1/debug/fingerprints?format=text", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "fingerprint classes") {
		t.Errorf("text rendering = %d %q", rw.Code, rw.Body.String())
	}
}

// TestFingerprintDebugConcurrency hammers /v1/debug/queries and
// /v1/debug/fingerprints while query traffic (with and without explain=1),
// inserts and dataset reloads mutate everything they read. Run under -race
// via race-core. Every scrape must decode as valid JSON with internally
// consistent classes (no torn reads), and the store must stay bounded.
func TestFingerprintDebugConcurrency(t *testing.T) {
	s := newTestServer(t, nil)
	db, items := testDB(t, testDatasetN)
	q, ct, _ := testQuery(t, db, items)

	const (
		workers = 4
		rounds  = 20
	)
	var workerWG, auxWG sync.WaitGroup
	reloadBody := fmt.Sprintf(`{"generate":{"kind":"UN","n":%d,"dims":2,"seed":7}}`, testDatasetN)
	for wk := 0; wk < workers; wk++ {
		workerWG.Add(1)
		go func(wk int) {
			defer workerWG.Done()
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					do(t, s, "POST", "/v1/whynot",
						fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID))
				case 1:
					w, resp := do(t, s, "POST", "/v1/whynot?explain=1",
						fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID))
					if w.Code == 200 {
						if _, ok := resp["plan"]; !ok {
							t.Errorf("explain=1 response lost its plan: %v", resp)
						}
					}
				case 2:
					do(t, s, "POST", "/v1/rskyline", fmt.Sprintf(`{"q":[%g,%g]}`, q[0], q[1]))
				case 3:
					do(t, s, "POST", "/v1/admin/insert",
						fmt.Sprintf(`{"id":%d,"point":[1,2]}`, 2_000_000+wk*rounds+i))
				}
			}
		}(wk)
	}

	stop := make(chan struct{})
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				do(t, s, "POST", "/v1/admin/reload", reloadBody)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w, resp := do(t, s, "GET", "/v1/debug/fingerprints", "")
					if w.Code != 200 {
						t.Errorf("fingerprints scrape = %d", w.Code)
						continue
					}
					checkClassInvariants(t, resp)
					req := httptest.NewRequest("GET", "/v1/debug/fingerprints?format=text", nil)
					s.Handler().ServeHTTP(httptest.NewRecorder(), req)
					do(t, s, "GET", "/v1/debug/queries?limit=10", "")
				}
			}
		}()
	}

	workerWG.Wait()
	close(stop)
	auxWG.Wait()

	// Final state: the store classified the workload and stayed bounded.
	w, resp := do(t, s, "GET", "/v1/debug/fingerprints", "")
	if w.Code != 200 {
		t.Fatalf("final scrape = %d", w.Code)
	}
	classes, _ := resp["classes"].([]any)
	if len(classes) == 0 {
		t.Fatal("no fingerprint classes after concurrent workload")
	}
	checkClassInvariants(t, resp)
	if drift := s.Fingerprints().Drifting(); drift > len(classes) {
		t.Errorf("drifting = %d > classes = %d", drift, len(classes))
	}
}

// checkClassInvariants asserts that one /v1/debug/fingerprints snapshot is
// internally consistent — the torn-read oracle for the concurrency test.
func checkClassInvariants(t *testing.T, resp map[string]any) {
	t.Helper()
	classes, ok := resp["classes"].([]any)
	if !ok {
		t.Errorf("classes missing or wrong type: %T", resp["classes"])
		return
	}
	// Bounded memory: the store rejects new classes past its cap rather than
	// evicting baselines, so the snapshot can never exceed it.
	if len(classes) > 256 {
		t.Errorf("fingerprint store exceeded its bound: %d classes", len(classes))
	}
	seen := map[string]bool{}
	for _, raw := range classes {
		c, ok := raw.(map[string]any)
		if !ok {
			t.Errorf("class is %T, not an object", raw)
			continue
		}
		fp, _ := c["fingerprint"].(string)
		if len(fp) != 16 {
			t.Errorf("torn class: fingerprint %q", fp)
		}
		if seen[fp] {
			t.Errorf("duplicate class %s in one snapshot", fp)
		}
		seen[fp] = true
		if n, _ := c["count"].(float64); n < 1 {
			t.Errorf("class %s: count %v < 1", fp, c["count"])
		}
		p50, _ := c["latency_p50_ms"].(float64)
		p95, _ := c["latency_p95_ms"].(float64)
		if p50 < 0 || p95 < 0 || p95 < p50 {
			t.Errorf("class %s: torn percentiles p50=%v p95=%v", fp, p50, p95)
		}
		c50, _ := c["cost_p50"].(float64)
		c95, _ := c["cost_p95"].(float64)
		if c50 < 0 || c95 < c50 {
			t.Errorf("class %s: torn cost percentiles p50=%v p95=%v", fp, c50, c95)
		}
	}
	if d, ok := resp["drifting"].(float64); !ok || int(d) > len(classes) {
		t.Errorf("drifting = %v with %d classes", resp["drifting"], len(classes))
	}
}

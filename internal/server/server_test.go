package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
)

// testDB builds a small deterministic uniform dataset and its indexed DB.
// The same (kind, n, dims, seed) tuple is used by newTestServer's generated
// boot dataset, so tests can reason about the served data locally.
func testDB(t *testing.T, n int) (*repro.DB, []repro.Item) {
	t.Helper()
	items, err := repro.GenerateDataset("UN", n, 2, 7)
	if err != nil {
		t.Fatalf("generate dataset: %v", err)
	}
	return repro.NewDBWithOptions(2, items, repro.DBOptions{}), items
}

// testQuery picks a query point, its reverse skyline, and one customer that
// is NOT a member (a why-not customer) — the inputs every MWQ needs.
func testQuery(t *testing.T, db *repro.DB, items []repro.Item) (repro.Point, repro.Item, []repro.Item) {
	t.Helper()
	q := repro.NewPoint(480, 520)
	rsl := db.ReverseSkyline(items, q)
	if len(rsl) == 0 {
		t.Fatal("test query has an empty reverse skyline")
	}
	member := make(map[int]bool, len(rsl))
	for _, it := range rsl {
		member[it.ID] = true
	}
	for _, it := range items {
		if !member[it.ID] {
			return q, it, rsl
		}
	}
	t.Fatal("every customer is a reverse-skyline member; no why-not customer to test with")
	return repro.Point{}, repro.Item{}, nil
}

const testDatasetN = 200

func testConfig() Config {
	return Config{
		Dataset: DatasetSpec{
			Generate: &GenerateSpec{Kind: "UN", N: testDatasetN, Dims: 2, Seed: 7},
		},
		RungTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return s
}

// do fires one request at the server's handler and decodes the JSON body.
func do(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var out map[string]any
	// The mux's own 405/404 responses are plain text; everything the server
	// writes itself is JSON.
	if b := w.Body.Bytes(); len(b) > 0 && strings.Contains(w.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s %s: non-JSON body %q: %v", method, path, b, err)
		}
	}
	return w, out
}

// TestServerEndpoints drives the whole API surface happy-path plus the
// validation rejections.
func TestServerEndpoints(t *testing.T) {
	s := newTestServer(t, nil)
	db, items := testDB(t, testDatasetN)
	q, ct, rsl := testQuery(t, db, items)

	t.Run("healthz", func(t *testing.T) {
		w, body := do(t, s, "GET", "/v1/healthz", "")
		if w.Code != 200 || body["ok"] != true {
			t.Fatalf("healthz = %d %v", w.Code, body)
		}
	})
	t.Run("readyz", func(t *testing.T) {
		w, body := do(t, s, "GET", "/v1/readyz", "")
		if w.Code != 200 || body["ready"] != true {
			t.Fatalf("readyz = %d %v", w.Code, body)
		}
	})
	t.Run("rskyline", func(t *testing.T) {
		w, body := do(t, s, "POST", "/v1/rskyline",
			fmt.Sprintf(`{"q":[%g,%g]}`, q[0], q[1]))
		if w.Code != 200 {
			t.Fatalf("rskyline = %d %v", w.Code, body)
		}
		if int(body["count"].(float64)) != len(rsl) {
			t.Fatalf("rskyline count = %v, want %d", body["count"], len(rsl))
		}
	})
	t.Run("whynot", func(t *testing.T) {
		w, body := do(t, s, "POST", "/v1/whynot",
			fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d,"trace":true}`, q[0], q[1], ct.ID))
		if w.Code != 200 {
			t.Fatalf("whynot = %d %v", w.Code, body)
		}
		if body["rung"] != "exact" || body["degraded"] != false {
			t.Fatalf("whynot answered rung=%v degraded=%v, want exact/false", body["rung"], body["degraded"])
		}
		if body["trace"] == nil {
			t.Fatal("trace requested but absent from response")
		}
		if int(body["snapshot_seq"].(float64)) != 1 {
			t.Fatalf("snapshot_seq = %v, want 1", body["snapshot_seq"])
		}
	})
	t.Run("whynot already member", func(t *testing.T) {
		w, body := do(t, s, "POST", "/v1/whynot",
			fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], rsl[0].ID))
		if w.Code != 200 || body["already_member"] != true {
			t.Fatalf("member whynot = %d %v, want already_member", w.Code, body)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		if w, _ := do(t, s, "POST", "/v1/whynot", `{"q":[1,2`); w.Code != 400 {
			t.Fatalf("truncated JSON = %d, want 400", w.Code)
		}
	})
	t.Run("wrong dims", func(t *testing.T) {
		if w, _ := do(t, s, "POST", "/v1/whynot", `{"q":[1,2,3],"customer_id":1}`); w.Code != 400 {
			t.Fatalf("3-d query on 2-d dataset = %d, want 400", w.Code)
		}
	})
	t.Run("unknown customer", func(t *testing.T) {
		if w, _ := do(t, s, "POST", "/v1/whynot", `{"q":[1,2],"customer_id":999999}`); w.Code != 404 {
			t.Fatalf("unknown customer = %d, want 404", w.Code)
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		if w, _ := do(t, s, "GET", "/v1/whynot", ""); w.Code != 405 {
			t.Fatalf("GET on POST route = %d, want 405", w.Code)
		}
	})
	t.Run("status", func(t *testing.T) {
		w, body := do(t, s, "GET", "/v1/admin/status", "")
		if w.Code != 200 || body["breakers"] == nil || body["admission"] == nil {
			t.Fatalf("status = %d %v", w.Code, body)
		}
	})
	t.Run("metrics", func(t *testing.T) {
		w, _ := do(t, s, "GET", "/metrics.json", "")
		if w.Code != 200 {
			t.Fatalf("metrics.json = %d", w.Code)
		}
		req := httptest.NewRequest("GET", "/metrics", nil)
		rw := httptest.NewRecorder()
		s.Handler().ServeHTTP(rw, req)
		if rw.Code != 200 || !strings.Contains(rw.Body.String(), "server_requests_total") {
			t.Fatalf("prometheus metrics = %d, missing server_requests_total", rw.Code)
		}
	})
}

// TestServerDeadlineShed: with the single execution token held and a service
// estimate far above the client deadline, the request is refused up front with
// 429 and a Retry-After header.
func TestServerDeadlineShed(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Admission = AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, InitialEstimate: time.Second}
	})
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatalf("hold token: %v", err)
	}
	defer release()

	w, body := do(t, s, "POST", "/v1/whynot", `{"q":[1,2],"customer_id":1,"timeout_ms":50}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d %v, want 429", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	if body["reason"] != ShedDeadline {
		t.Fatalf("shed reason = %v, want %q", body["reason"], ShedDeadline)
	}
	if got := s.metrics.Sheds.With(ShedDeadline).Value(); got != 1 {
		t.Fatalf("shed metric = %v, want 1", got)
	}
}

// TestServerReload: a hot-swap publishes a new snapshot atomically, bumps the
// sequence number, retires the old snapshot's caches, and keeps answering.
func TestServerReload(t *testing.T) {
	s := newTestServer(t, nil)
	old := s.Snapshot()

	w, body := do(t, s, "POST", "/v1/admin/reload",
		`{"generate":{"kind":"UN","n":100,"dims":2,"seed":9}}`)
	if w.Code != 200 {
		t.Fatalf("reload = %d %v", w.Code, body)
	}
	if int(body["snapshot_seq"].(float64)) != 2 || int(body["items"].(float64)) != 100 {
		t.Fatalf("reload body = %v, want seq 2 with 100 items", body)
	}
	if snap := s.Snapshot(); snap == old || snap.Seq != 2 {
		t.Fatalf("snapshot not swapped: seq %d", s.Snapshot().Seq)
	}

	// Queries keep working against the new snapshot and say which one.
	w, body = do(t, s, "POST", "/v1/rskyline", `{"q":[480,520]}`)
	if w.Code != 200 || int(body["snapshot_seq"].(float64)) != 2 {
		t.Fatalf("post-reload rskyline = %d %v", w.Code, body)
	}

	// Dataset source errors surface as 422, not a broken server.
	w, _ = do(t, s, "POST", "/v1/admin/reload", `{"path":"/does/not/exist.csv"}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad reload = %d, want 422", w.Code)
	}
	if s.Snapshot().Seq != 2 {
		t.Fatal("failed reload must not replace the serving snapshot")
	}
}

// blockHook is a cancel.Hook that parks the first query reaching the
// reverse-skyline customer checkpoint until released, so tests can hold a request
// in flight deterministically.
type blockHook struct {
	entered chan struct{} // closed when a query reaches the checkpoint
	release chan struct{} // close to let it continue
	once    sync.Once
}

func newBlockHook() *blockHook {
	return &blockHook{entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *blockHook) Visit(site string, _ uint64) {
	if site != cancel.SiteCustomer {
		return
	}
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
}

// TestServerDrain exercises the graceful-drain lifecycle over a real
// listener: readiness flips immediately, the in-flight request still
// completes with 200, and Shutdown returns cleanly.
func TestServerDrain(t *testing.T) {
	hook := newBlockHook()
	s := newTestServer(t, func(c *Config) { c.Hook = hook })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Park one request at a cooperative checkpoint.
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/rskyline", "application/json",
			strings.NewReader(`{"q":[480,520]}`))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	select {
	case <-hook.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the checkpoint")
	}

	// Drain begins: readiness flips while the request is still in flight.
	s.BeginDrain()
	resp, err := http.Get(base + "/v1/readyz")
	if err != nil {
		t.Fatalf("readyz during drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}

	// Release the parked request, then shut down: the request must have been
	// allowed to finish (200), and Shutdown must report a clean drain.
	close(hook.release)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if code := <-reqDone; code != 200 {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}
}

// TestServerBreakerTripAndRecover: injected panics in the exact rung degrade
// answers to MWP (never 5xx), trip the exact breaker, and once the fault
// window closes the breaker probes its way back to closed and the server
// returns exact answers again.
func TestServerBreakerTripAndRecover(t *testing.T) {
	now := mockClock(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Panic: "injected exact-rung bug"})
	sw := faultinject.NewSwitch(inj)
	s := newTestServer(t, func(c *Config) {
		c.Hook = sw
		c.Breaker = BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             time.Minute,
			HalfOpenSuccesses:   2,
			Window:              64, MinSamples: 64,
		}
	})
	db, items := testDB(t, testDatasetN)
	q, ct, _ := testQuery(t, db, items)
	whynot := fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ct.ID)

	// Fault window open: every exact attempt panics; the ladder absorbs it
	// and answers from the MWP floor with 200.
	sw.Set(true)
	for i := 0; i < 2; i++ {
		w, body := do(t, s, "POST", "/v1/whynot", whynot)
		if w.Code != 200 {
			t.Fatalf("faulted request %d = %d %v, want 200 (degraded)", i, w.Code, body)
		}
		if body["degraded"] != true || body["rung"] != "mwp" {
			t.Fatalf("faulted request %d = rung %v degraded %v, want degraded mwp", i, body["rung"], body["degraded"])
		}
	}
	if st := s.breakers.Status()["exact"]; st.State != "open" {
		t.Fatalf("exact breaker = %+v after consecutive panics, want open", st)
	}

	// Breaker open: the exact rung is vetoed without running (no more panics
	// consumed), still 200 from the floor.
	visitsBefore := inj.Visits(cancel.SiteSafeRegion)
	w, body := do(t, s, "POST", "/v1/whynot", whynot)
	if w.Code != 200 || body["rung"] != "mwp" {
		t.Fatalf("open-breaker request = %d rung %v, want 200 mwp", w.Code, body["rung"])
	}
	if v := inj.Visits(cancel.SiteSafeRegion); v != visitsBefore {
		t.Fatalf("exact rung ran %d more times while its breaker was open", v-visitsBefore)
	}

	// Fault window closes, open period elapses: probes succeed and the
	// breaker re-closes; answers come from the exact rung again.
	sw.Set(false)
	*now += int64(time.Minute)
	for i := 0; i < 2; i++ {
		w, body := do(t, s, "POST", "/v1/whynot", whynot)
		if w.Code != 200 || body["rung"] != "exact" {
			t.Fatalf("probe %d = %d rung %v, want 200 exact", i, w.Code, body["rung"])
		}
	}
	st := s.breakers.Status()["exact"]
	if st.State != "closed" || st.Recloses != 1 {
		t.Fatalf("exact breaker = %+v after recovery, want closed with 1 re-close", st)
	}
}

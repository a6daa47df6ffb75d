package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs/flight"
	"repro/internal/wal"
	"repro/internal/wal/vfs"
)

// faultyDurable wires a durable test server whose WAL sits on a fault
// injector, with the reopen probe's backoff shrunk so recovery happens
// within a test's patience.
func faultyDurable(t *testing.T, ffs *vfs.FaultFS, dir string) func(*Config) {
	t.Helper()
	return func(cfg *Config) {
		cfg.Durability = &wal.Options{Dir: dir, Policy: wal.SyncAlways, FS: ffs}
		cfg.ReopenProbeMin = 2 * time.Millisecond
		cfg.ReopenProbeMax = 20 * time.Millisecond
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitWritable polls the mutation path until it accepts again (the reopen
// probe runs on its own goroutine) and returns the successful response body.
func waitWritable(t *testing.T, s *Server, body string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, resp := do(t, s, "POST", "/v1/admin/insert", body)
		if w.Code == 200 {
			return resp
		}
		if w.Code != 503 {
			t.Fatalf("mutation while recovering = %d %v, want 200 or 503", w.Code, resp)
		}
		if time.Now().After(deadline) {
			t.Fatalf("mutation path never recovered: last %d %v", w.Code, resp)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedModeRefusesMutationsAndProbeRecovers is the end-to-end
// degraded-mode contract: a disk fault flips the server read-only (mutations
// and reloads answer 503 + Retry-After, queries and readiness keep serving,
// the flight ledger records "readonly"), and once the disk recovers the
// probe returns the server to writable with no operator action.
func TestDegradedModeRefusesMutationsAndProbeRecovers(t *testing.T) {
	// An unlimited fsync-failure rule on segment files: while armed, appends
	// degrade the log and the reopen probe's own repair fsync fails too, so
	// the server verifiably STAYS degraded until the window closes.
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Rule{Op: vfs.OpSync, Path: "wal-", Fault: vfs.FaultSyncFail})
	ffs.SetArmed(false)
	s := newTestServer(t, faultyDurable(t, ffs, t.TempDir()))
	defer shutdownServer(t, s)

	w, body := do(t, s, "POST", "/v1/admin/insert", `{"id":910001,"point":[480,520]}`)
	if w.Code != 200 {
		t.Fatalf("healthy insert = %d %v", w.Code, body)
	}

	ffs.SetArmed(true)
	w, body = do(t, s, "POST", "/v1/admin/insert", `{"id":910002,"point":[100,200]}`)
	if w.Code != 503 {
		t.Fatalf("degraded insert = %d %v, want 503", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("degraded insert carries no Retry-After header")
	}
	if body["reason"] != "storage_degraded" {
		t.Errorf("degraded insert reason = %v, want storage_degraded", body["reason"])
	}
	if _, ok := s.Snapshot().Customer(910002); ok {
		t.Error("refused insert leaked into the serving snapshot")
	}

	// Sticky: the next mutation is refused by the parked log without touching
	// the disk again, and a reload is refused the same way (its checkpoint
	// cannot run on an IO-degraded log).
	w, _ = do(t, s, "POST", "/v1/admin/delete", `{"id":910001}`)
	if w.Code != 503 {
		t.Fatalf("second mutation while degraded = %d, want 503", w.Code)
	}
	w, body = do(t, s, "POST", "/v1/admin/reload",
		`{"generate":{"kind":"UN","n":50,"dims":2,"seed":9}}`)
	if w.Code != 503 {
		t.Fatalf("reload while degraded = %d %v, want 503", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("degraded reload carries no Retry-After header")
	}

	// Queries and readiness keep serving; the status surface tells the truth.
	w, body = do(t, s, "POST", "/v1/rskyline", `{"q":[480,520]}`)
	if w.Code != 200 {
		t.Fatalf("query while degraded = %d %v, want 200", w.Code, body)
	}
	w, body = do(t, s, "GET", "/v1/readyz", "")
	if w.Code != 200 || body["ready"] != true {
		t.Fatalf("readyz while degraded = %d %v, want ready", w.Code, body)
	}
	if body["storage"] != "degraded (io)" {
		t.Errorf("readyz storage = %v, want %q", body["storage"], "degraded (io)")
	}
	_, body = do(t, s, "GET", "/v1/admin/status", "")
	storage, _ := body["storage"].(map[string]any)
	if storage == nil || storage["reason"] != "io" {
		t.Errorf("status storage = %v, want reason io", body["storage"])
	}

	// The refusals land in the flight ledger as "readonly", distinguishable
	// from overload sheds and crashes.
	readonly := 0
	for _, rec := range s.FlightRecorder().Recent(0) {
		if rec.Outcome == flight.OutcomeReadOnly {
			readonly++
		}
	}
	if readonly < 2 {
		t.Errorf("flight ledger has %d readonly outcomes, want >= 2", readonly)
	}

	// Disk recovers: the probe re-arms the WAL and the server goes writable
	// again on its own.
	ffs.SetArmed(false)
	s.noteStorageFault()
	waitWritable(t, s, `{"id":910002,"point":[100,200]}`)
	if _, ok := s.Snapshot().Customer(910002); !ok {
		t.Error("post-recovery insert not serving")
	}
	_, body = do(t, s, "GET", "/v1/readyz", "")
	if body["storage"] != "ok" {
		t.Errorf("readyz storage after recovery = %v, want ok", body["storage"])
	}
	if s.metrics.ReopenProbes.Value() == 0 {
		t.Error("recovery happened but no reopen probe was counted")
	}
}

// TestPendingPublishClearsViaProbe covers clear path A of the old
// mutation-path poisoning: a mutation that was durably logged but whose
// snapshot publish failed parks the server in "degraded (publish)" — further
// mutations refuse so WAL order and publish order cannot diverge — and the
// probe republishes the logged item set, reopening the path automatically.
func TestPendingPublishClearsViaProbe(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.SetArmed(false)
	s := newTestServer(t, faultyDurable(t, ffs, t.TempDir()))
	defer shutdownServer(t, s)

	// Inject the poisoned state directly: the logged set = serving set plus
	// one item that never made it into a snapshot. (Forcing snapshotFromItems
	// itself to fail would need an engine fault; the state machine downstream
	// of the failure is what this test pins.)
	snap := s.Snapshot()
	items := append(append([]repro.Item{}, snap.Items...),
		repro.Item{ID: 920001, Point: repro.NewPoint(111, 222)})
	seq, err := s.wal.Append(wal.OpInsert, repro.Item{ID: 920001, Point: repro.NewPoint(111, 222)})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	s.mutMu.Lock()
	s.pendingPub = &pendingPublish{items: items, seq: seq, name: snap.Name}
	s.updateStorageLocked()
	s.mutMu.Unlock()

	// Read readyz before the insert: the refused insert wakes the reopen
	// probe, which may republish before a later read.
	_, body := do(t, s, "GET", "/v1/readyz", "")
	if body["storage"] != "degraded (publish)" {
		t.Errorf("readyz storage = %v, want %q", body["storage"], "degraded (publish)")
	}
	w, body := do(t, s, "POST", "/v1/admin/insert", `{"id":920002,"point":[50,60]}`)
	if w.Code != 503 {
		t.Fatalf("insert with pending publish = %d %v, want 503", w.Code, body)
	}
	if body["reason"] != "storage_degraded" {
		t.Errorf("refusal reason = %v, want storage_degraded", body["reason"])
	}

	// The probe retries the publish: the pending item set becomes the serving
	// snapshot and the mutation path reopens.
	s.noteStorageFault()
	waitWritable(t, s, `{"id":920002,"point":[50,60]}`)
	if _, ok := s.Snapshot().Customer(920001); !ok {
		t.Error("pending item not serving after the probe's republish")
	}
	if _, ok := s.Snapshot().Customer(920002); !ok {
		t.Error("post-recovery insert not serving")
	}
	s.mutMu.Lock()
	pending := s.pendingPub
	s.mutMu.Unlock()
	if pending != nil {
		t.Error("pendingPub still set after successful republish")
	}
}

// TestPendingPublishClearsViaReload covers clear path B: an operator reload
// supersedes the pending mutation — the reload's checkpoint starts a new
// durability epoch, so the logged-but-unpublished record is deliberately
// retired and the mutation path reopens immediately.
func TestPendingPublishClearsViaReload(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.SetArmed(false)
	s := newTestServer(t, faultyDurable(t, ffs, t.TempDir()))
	defer shutdownServer(t, s)

	snap := s.Snapshot()
	items := append(append([]repro.Item{}, snap.Items...),
		repro.Item{ID: 930001, Point: repro.NewPoint(1, 2)})
	seq, err := s.wal.Append(wal.OpInsert, repro.Item{ID: 930001, Point: repro.NewPoint(1, 2)})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	s.mutMu.Lock()
	s.pendingPub = &pendingPublish{items: items, seq: seq, name: snap.Name}
	s.updateStorageLocked()
	s.mutMu.Unlock()

	if w, _ := do(t, s, "POST", "/v1/admin/insert", `{"id":930002,"point":[3,4]}`); w.Code != 503 {
		t.Fatalf("insert with pending publish = %d, want 503", w.Code)
	}

	w, body := do(t, s, "POST", "/v1/admin/reload",
		`{"generate":{"kind":"UN","n":80,"dims":2,"seed":11}}`)
	if w.Code != 200 {
		t.Fatalf("reload with pending publish = %d %v, want 200", w.Code, body)
	}
	s.mutMu.Lock()
	pending := s.pendingPub
	s.mutMu.Unlock()
	if pending != nil {
		t.Error("pendingPub survived the reload that superseded it")
	}
	_, body = do(t, s, "GET", "/v1/readyz", "")
	if body["storage"] != "ok" {
		t.Errorf("readyz storage after reload = %v, want ok", body["storage"])
	}
	if w, body := do(t, s, "POST", "/v1/admin/insert", `{"id":930002,"point":[3,4]}`); w.Code != 200 {
		t.Fatalf("insert after reload = %d %v, want 200", w.Code, body)
	}
}

// TestServerScrubQuarantinesRotAndStatusReports drives the server-level
// scrubber entry point over injected media rot: the scrub finds the damage,
// salvages via the wired checkpoint, quarantines the rotten segment, the
// server stays writable throughout, and the status surface reports the pass.
func TestServerScrubQuarantinesRotAndStatusReports(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.SetArmed(false)
	s := newTestServer(t, func(cfg *Config) {
		cfg.Durability = &wal.Options{Dir: dir, Policy: wal.SyncAlways, FS: ffs, SegmentBytes: 256}
		cfg.ReopenProbeMin = 2 * time.Millisecond
		cfg.ReopenProbeMax = 20 * time.Millisecond
	})
	defer shutdownServer(t, s)

	// Enough mutations to seal at least one segment behind the active one.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"id":%d,"point":[10,20]}`, 940000+i)
		if w, resp := do(t, s, "POST", "/v1/admin/insert", body); w.Code != 200 {
			t.Fatalf("insert %d = %d %v", i, w.Code, resp)
		}
	}
	segs := walFilesWithPrefix(t, dir, "wal-")
	if len(segs) < 2 {
		t.Fatalf("workload sealed no segment: %v", segs)
	}
	flipFileBit(t, filepath.Join(dir, segs[0]))

	rep, err := s.RunScrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Corruptions != 1 || rep.Quarantined != 1 {
		t.Fatalf("scrub report %+v, want 1 corruption quarantined", rep)
	}
	if s.storageState().Degraded {
		t.Fatalf("server degraded after salvageable rot: %+v", s.storageState())
	}
	_, body := do(t, s, "GET", "/v1/admin/status", "")
	storage, _ := body["storage"].(map[string]any)
	if storage == nil || storage["last_scrub"] == nil {
		t.Errorf("status storage has no last_scrub: %v", body["storage"])
	}
	if w, resp := do(t, s, "POST", "/v1/admin/insert", `{"id":940100,"point":[30,40]}`); w.Code != 200 {
		t.Fatalf("insert after scrub = %d %v", w.Code, resp)
	}
}

// walFilesWithPrefix lists base names in dir starting with prefix, sorted.
func walFilesWithPrefix(t *testing.T, dir, prefix string) []string {
	t.Helper()
	ents, err := vfs.OS.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) && !strings.HasSuffix(e.Name(), ".quarantined") {
			out = append(out, e.Name())
		}
	}
	return out
}

// flipFileBit flips one bit in the middle of the file at path.
func flipFileBit(t *testing.T, path string) {
	t.Helper()
	buf, err := vfs.OS.ReadFile(path)
	if err != nil || len(buf) == 0 {
		t.Fatalf("read %s: %v (len %d)", path, err, len(buf))
	}
	buf[len(buf)/2] ^= 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

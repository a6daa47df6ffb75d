package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs/flight"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/vfs"
)

// TestStorageFaultWindow is the serving-layer chaos scenario for disk
// faults: a durable server whose WAL sits on a fault injector gets a window
// of fsync failures. During the window every mutation must answer 503 with
// Retry-After (and land in the flight ledger as "readonly"), while
// concurrent reverse-skyline queries keep answering — checked for
// correctness against an oracle DB built from exactly the acknowledged item
// set, not just for status 200. When the window closes the reopen probe must
// return the server to writable with no operator action.
func TestStorageFaultWindow(t *testing.T) {
	const (
		datasetN    = 120
		datasetSeed = int64(5)
		insertBase  = 800_000
	)
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Rule{Op: vfs.OpSync, Path: "wal-", Fault: vfs.FaultSyncFail})
	ffs.SetArmed(false)

	srv, err := server.New(context.Background(), server.Config{
		Dataset: server.DatasetSpec{
			Generate: &server.GenerateSpec{Kind: "UN", N: datasetN, Dims: 2, Seed: datasetSeed},
		},
		Durability:     &wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways, FS: ffs},
		ReopenProbeMin: 2 * time.Millisecond,
		ReopenProbeMax: 20 * time.Millisecond,
		RungTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	handler := srv.Handler()
	post := func(path, body string) (*httptest.ResponseRecorder, map[string]any) {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		var out map[string]any
		if b := w.Body.Bytes(); len(b) > 0 && strings.Contains(w.Header().Get("Content-Type"), "json") {
			_ = json.Unmarshal(b, &out)
		}
		return w, out
	}

	// The oracle tracks exactly the acknowledged item set; the workload is
	// deterministic so the harness knows the base dataset without asking.
	oracleItems, err := repro.GenerateDataset("UN", datasetN, 2, datasetSeed)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy phase: acknowledged mutations extend the oracle.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		it := repro.Item{ID: insertBase + i, Point: repro.NewPoint(rng.Float64()*1000, rng.Float64()*1000)}
		w, body := post("/v1/admin/insert",
			fmt.Sprintf(`{"id":%d,"point":[%g,%g]}`, it.ID, it.Point[0], it.Point[1]))
		if w.Code != 200 {
			t.Fatalf("healthy insert %d = %d %v", i, w.Code, body)
		}
		oracleItems = append(oracleItems, it)
	}
	oracleDB := repro.NewDBWithOptions(2, oracleItems, repro.DBOptions{})

	// Fault window: queries serve (correctly), mutations refuse honestly.
	ffs.SetArmed(true)
	var (
		wg          sync.WaitGroup
		stopReaders = make(chan struct{})
		mu          sync.Mutex
		checked     int
		readerFails []string
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 4242))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				q := repro.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
				w, body := post("/v1/rskyline", fmt.Sprintf(`{"q":[%g,%g]}`, q[0], q[1]))
				if w.Code != 200 {
					continue // a shed under pressure is allowed; wrong answers are not
				}
				if d, _ := body["degraded"].(bool); d {
					continue // a degraded (best-effort) answer makes no exactness claim
				}
				var got []int
				for _, raw := range body["customer_ids"].([]any) {
					got = append(got, int(raw.(float64)))
				}
				sort.Ints(got)
				var want []int
				for _, it := range oracleDB.ReverseSkyline(oracleItems, q) {
					want = append(want, it.ID)
				}
				sort.Ints(want)
				mu.Lock()
				checked++
				if len(got) != len(want) {
					readerFails = append(readerFails, fmt.Sprintf("RSL(%v): got %d ids, oracle %d", q, len(got), len(want)))
				} else {
					for i := range got {
						if got[i] != want[i] {
							readerFails = append(readerFails, fmt.Sprintf("RSL(%v): got %v, oracle %v", q, got, want))
							break
						}
					}
				}
				mu.Unlock()
			}
		}(r)
	}

	refused := 0
	for i := 0; i < 5; i++ {
		w, body := post("/v1/admin/insert",
			fmt.Sprintf(`{"id":%d,"point":[1,2]}`, insertBase+100+i))
		if w.Code != 503 {
			t.Fatalf("mutation in fault window = %d %v, want 503", w.Code, body)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Error("read-only refusal carries no Retry-After")
		}
		if body["reason"] != "storage_degraded" {
			t.Errorf("refusal reason = %v, want storage_degraded", body["reason"])
		}
		refused++
		time.Sleep(10 * time.Millisecond) // let readers interleave with refusals
	}
	close(stopReaders)
	wg.Wait()
	mu.Lock()
	for _, f := range readerFails {
		t.Error(f)
	}
	if checked == 0 {
		t.Error("no query was oracle-checked during the fault window")
	}
	nChecked := checked
	mu.Unlock()

	// Window closes: the probe must bring the server back on its own.
	ffs.SetArmed(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, body := post("/v1/admin/insert", fmt.Sprintf(`{"id":%d,"point":[3,4]}`, insertBase+200))
		if w.Code == 200 {
			break
		}
		if w.Code != 503 {
			t.Fatalf("mutation while recovering = %d %v", w.Code, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never returned to writable: %d %v", w.Code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The ledger's totals, not the record ring: the concurrent readers
	// finish far more queries than the ring holds, evicting refusals.
	readonly := int(srv.FlightRecorder().Totals().ByOutcome[flight.OutcomeReadOnly])
	if readonly < refused {
		t.Errorf("flight ledger has %d readonly outcomes, want >= %d", readonly, refused)
	}
	t.Logf("fault window: %d refusals, %d oracle-checked queries, %d readonly flight records",
		refused, nChecked, readonly)
}

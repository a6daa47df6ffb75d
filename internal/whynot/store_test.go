package whynot

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func TestApproxStoreSaveLoadRoundTrip(t *testing.T) {
	products := randProducts(300, 2024)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products[:50], 7, 0)
	if store.Len() != 50 {
		t.Fatalf("store Len = %d", store.Len())
	}

	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadApproxStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != 7 || back.SortDim != 0 || back.Len() != 50 {
		t.Fatalf("round trip lost metadata: %+v", back)
	}
	for _, c := range products[:50] {
		want, _ := store.Corners(c.ID)
		got, ok := back.Corners(c.ID)
		if !ok || !reflect.DeepEqual(want, got) {
			t.Fatalf("corners for %d differ after round trip", c.ID)
		}
	}

	// The loaded store produces identical safe regions.
	q := products[7].Point.Clone()
	q[0] += 0.5
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
	if len(rsl) > 0 {
		a := e.ApproxSafeRegion(q, rsl, store)
		b := e.ApproxSafeRegion(q, rsl, back)
		if len(a) != len(b) {
			t.Fatalf("safe regions differ: %d vs %d rects", len(a), len(b))
		}
	}
}

func TestLoadApproxStoreErrors(t *testing.T) {
	if _, err := LoadApproxStore(strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage input must fail")
	}
	if _, err := LoadApproxStore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestBuildApproxStoreParallelMatchesSerial(t *testing.T) {
	products := randProducts(400, 2025)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	serial := e.BuildApproxStore(products[:120], 5, 0)
	for _, workers := range workerCounts() {
		parallel := engineAt(products, workers).BuildApproxStore(products[:120], 5, 0)
		if parallel.Len() != serial.Len() {
			t.Fatalf("workers=%d: Len %d vs %d", workers, parallel.Len(), serial.Len())
		}
		for _, c := range products[:120] {
			want, _ := serial.Corners(c.ID)
			got, ok := parallel.Corners(c.ID)
			if !ok || !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: corners differ for customer %d", workers, c.ID)
			}
		}
	}
	// Empty customer list is fine.
	if got := engineAt(products, 4).BuildApproxStore(nil, 5, 0); got.Len() != 0 {
		t.Fatal("empty build must yield an empty store")
	}
}

// TestApproxStoreChecksum: every single-byte corruption of a v2 store must be
// rejected — that is the whole point of the CRC trailer. Field validation
// alone cannot catch a bit flip inside a plausible coordinate.
func TestApproxStoreChecksum(t *testing.T) {
	products := randProducts(60, 99)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products[:12], 3, 0)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for i := range valid {
		mutated := append([]byte{}, valid...)
		mutated[i] ^= 0x01
		if _, err := LoadApproxStore(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("byte %d flipped, load still succeeded", i)
		}
	}
	// Truncating the trailer is also corruption.
	if _, err := LoadApproxStore(bytes.NewReader(valid[:len(valid)-2])); err == nil {
		t.Fatal("truncated trailer accepted")
	}
}

// TestApproxStoreV1Compat: a legacy v1 file — no trailer, version field 1 —
// still loads, and re-saving upgrades it to checksummed v2.
func TestApproxStoreV1Compat(t *testing.T) {
	products := randProducts(60, 100)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products[:12], 3, 0)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()

	// Reconstruct the v1 encoding: strip the CRC trailer, patch the version.
	v1 := append([]byte{}, v2[:len(v2)-4]...)
	v1[4], v1[5] = storeVersionV1, 0

	back, err := LoadApproxStore(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 store rejected: %v", err)
	}
	if back.Len() != store.Len() || back.K != store.K || back.SortDim != store.SortDim {
		t.Fatalf("v1 load lost data: %d/%d/%d", back.Len(), back.K, back.SortDim)
	}
	// Re-saving emits v2 bytes, trailer included.
	var up bytes.Buffer
	if err := back.Save(&up); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(up.Bytes(), v2) {
		t.Fatal("re-saved v1 store does not match the v2 encoding")
	}
	// A v1 file with trailing garbage still fails.
	if _, err := LoadApproxStore(bytes.NewReader(append(v1, 0))); err == nil {
		t.Fatal("v1 store with trailing data accepted")
	}
}

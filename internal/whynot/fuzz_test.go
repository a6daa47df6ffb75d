package whynot

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// fuzzEngine is shared across fuzz iterations (read-only use).
var fuzzEngine = NewEngine(rskyline.NewDB(2, randProducts(250, 424242), rtree.Config{}), true)

// FuzzMWPMQP drives Algorithms 1 and 2 with arbitrary query and why-not
// coordinates: no panics, no invalid candidates, costs non-negative.
// FuzzLoadApproxStore feeds arbitrary bytes to the binary store decoder: it
// must either fail with a descriptive error or produce a store that survives
// a save/load round trip — never panic, never allocate unboundedly.
func FuzzLoadApproxStore(f *testing.F) {
	// Seed with a real store plus truncations and mutations of it.
	products := randProducts(40, 77)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products[:10], 3, 0)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(storeMagic))
	f.Add([]byte("not a store"))
	f.Add([]byte{})
	huge := append([]byte{}, valid...)
	for i := 10; i < 14 && i < len(huge); i++ {
		huge[i] = 0xff // inflate the customer count
	}
	f.Add(huge)
	// A legacy v1 file is the v2 body without its CRC trailer and with the
	// version field patched down; the decoder must still accept it.
	v1 := append([]byte{}, valid[:len(valid)-4]...)
	v1[4], v1[5] = storeVersionV1, 0
	f.Add(v1)
	// A mid-body bit flip must be caught by the trailer even where every
	// field stays individually plausible.
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// A v2 file with a corrupt trailer itself.
	badTrailer := append([]byte{}, valid...)
	badTrailer[len(badTrailer)-1] ^= 0xff
	f.Add(badTrailer)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadApproxStore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Save(&out); err != nil {
			t.Fatalf("decoded store failed to re-encode: %v", err)
		}
		back, err := LoadApproxStore(&out)
		if err != nil {
			t.Fatalf("re-encoded store failed to decode: %v", err)
		}
		if back.Len() != s.Len() || back.K != s.K || back.SortDim != s.SortDim {
			t.Fatalf("round trip changed store: %d/%d/%d vs %d/%d/%d",
				back.Len(), back.K, back.SortDim, s.Len(), s.K, s.SortDim)
		}
	})
}

func FuzzMWPMQP(f *testing.F) {
	f.Add(50.0, 50.0, 10.0, 90.0)
	f.Add(0.0, 0.0, 100.0, 100.0)
	f.Add(-1e6, 1e6, 3.0, 3.0)
	f.Add(12.5, 12.5, 12.5, 12.5)
	f.Fuzz(func(t *testing.T, qx, qy, cx, cy float64) {
		for _, v := range []float64{qx, qy, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return
			}
		}
		e := fuzzEngine
		q := geom.NewPoint(qx, qy)
		ct := Item{ID: 999999, Point: geom.NewPoint(cx, cy)} // bichromatic: no exclusion hit
		mwp := e.MWP(ct, q, Options{})
		if len(mwp.Candidates) == 0 {
			t.Fatal("MWP returned no candidates")
		}
		for _, cand := range mwp.Candidates {
			if cand.Cost < 0 || math.IsNaN(cand.Cost) {
				t.Fatalf("MWP cost %v", cand.Cost)
			}
			if !mwp.AlreadyMember && !must(e.ValidateWhyNotMoveCtx(bg, ct, q, cand.Point, 1e-7)) {
				t.Fatalf("invalid MWP candidate %v (ct=%v q=%v)", cand.Point, ct.Point, q)
			}
		}
		mqp := e.MQP(ct, q, Options{})
		if len(mqp.Candidates) == 0 {
			t.Fatal("MQP returned no candidates")
		}
		for _, cand := range mqp.Candidates {
			if cand.Cost < 0 || math.IsNaN(cand.Cost) {
				t.Fatalf("MQP cost %v", cand.Cost)
			}
			if !mqp.AlreadyMember && !must(e.ValidateQueryMoveCtx(bg, ct, cand.Point, 1e-7)) {
				t.Fatalf("invalid MQP candidate %v (ct=%v q=%v)", cand.Point, ct.Point, q)
			}
		}
	})
}

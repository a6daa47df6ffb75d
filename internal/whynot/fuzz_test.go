package whynot

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/region"
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

// FuzzSafeRegionWindowed checks the cache-free exact safe region, built in
// two passes from window-constrained dynamic skylines, against a reference
// that folds region.AntiDDR over each member's full DSL: the two rectangle
// lists must be equal, in order. It also checks that each member's windowed
// DSL is its full DSL restricted to the closed window, edges included. The
// inputs are small integer datasets, where ties, duplicate products,
// customers on products and DSL points on a window's edge are common. The
// first byte picks d ∈ {2, 3, 4} and the setting (monochromatic or
// bichromatic); the next d bytes give q; the rest are records of d + 1
// bytes: a role (even for a product, odd for a customer; in the
// monochromatic setting every record is a product and a customer) and d
// coordinates. Every coordinate is reduced into [0, 7]. At most six
// reverse-skyline members are used.
func FuzzSafeRegionWindowed(f *testing.F) {
	// Every seed but the last holds duplicate products, |RSL| ≥ 4 and DSL
	// points on a member's window edge; the bichromatic ones have a customer
	// on a product.
	for _, seed := range [][]byte{
		// d = 2, monochromatic, |RSL| = 6.
		{3, 4, 6, 0, 0, 4, 0, 7, 3, 0, 6, 6, 1, 2, 7, 0, 1, 4, 1, 0, 1, 0, 5, 7, 0, 6, 4, 0, 4, 6, 1, 4, 6, 1, 2, 0, 0, 5, 5, 0, 1, 0, 1, 7, 0, 0, 4, 4},
		// d = 2, monochromatic, |RSL| = 4.
		{3, 5, 4, 1, 5, 7, 1, 3, 5, 0, 0, 5, 1, 0, 1, 0, 2, 1, 1, 1, 2, 1, 0, 6, 0, 1, 2, 1, 7, 1, 1, 4, 2},
		// d = 2, bichromatic, |RSL| = 6.
		{0, 1, 2, 1, 5, 0, 1, 0, 3, 0, 5, 3, 1, 5, 3, 0, 5, 4, 1, 2, 3, 0, 5, 4, 1, 1, 3, 1, 2, 1, 1, 2, 2, 1, 1, 3, 1, 1, 1},
		// d = 3, monochromatic, |RSL| = 6.
		{4, 4, 1, 1, 0, 4, 4, 3, 0, 2, 0, 2, 0, 1, 3, 4, 0, 7, 1, 4, 1, 2, 0, 1, 1, 0, 4, 1, 0, 6, 0, 3, 1, 0, 4, 1, 1, 6, 5, 4, 1, 4, 0, 2, 0, 4, 2, 5, 1, 3, 5, 5, 0, 1, 1, 2, 0, 5, 6, 0},
		// d = 3, bichromatic, |RSL| = 6.
		{1, 2, 0, 7, 1, 2, 2, 3, 1, 0, 4, 6, 0, 4, 6, 5, 1, 6, 4, 4, 0, 7, 4, 4, 1, 3, 7, 2, 1, 5, 1, 4, 1, 3, 0, 6, 0, 7, 3, 2, 0, 7, 4, 4, 0, 6, 5, 5, 1, 4, 6, 5, 1, 7, 0, 3, 1, 2, 5, 0, 1, 0, 2, 6},
		// d = 4, monochromatic, |RSL| = 6.
		{5, 3, 6, 0, 2, 0, 4, 0, 7, 6, 1, 3, 5, 7, 7, 0, 5, 0, 7, 3, 0, 1, 2, 0, 7, 1, 0, 3, 7, 3, 0, 6, 6, 5, 7, 0, 0, 3, 7, 3, 1, 0, 7, 3, 7, 1, 0, 3, 6, 1, 1, 4, 3, 6, 5, 1, 0, 2, 4, 3, 0, 5, 1, 6, 6, 0, 4, 6, 2, 5, 0, 4, 4, 6, 3},
		// d = 4, bichromatic, |RSL| = 4.
		{2, 7, 3, 0, 1, 0, 2, 1, 1, 1, 1, 2, 2, 3, 3, 1, 2, 0, 0, 0, 1, 2, 2, 3, 2, 0, 2, 2, 3, 3, 1, 3, 1, 1, 2, 1, 1, 1, 3, 3, 0, 1, 2, 2, 3, 1, 0, 3, 2, 1, 0, 0, 1, 2, 2, 1, 2, 1, 1, 1, 0, 1, 2, 1, 0, 0, 1, 2, 0, 2, 0, 1, 2, 2, 3, 1, 2, 3, 2, 2, 1, 0, 3, 2, 0},
		// d = 2, one product: |RSL| = 1 builds the full region.
		{0, 3, 3, 0, 1, 5, 1, 5, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := 2 + int(data[0])%3
		mono := data[0]/3%2 == 1
		data = data[1:]
		if len(data) < d {
			return
		}
		coords := func(b []byte) geom.Point {
			p := make(geom.Point, d)
			for i := range p {
				p[i] = float64(b[i] % 8)
			}
			return p
		}
		q := coords(data)
		data = data[d:]
		var products, customers []Item
		for len(data) > d && len(products)+len(customers) < 24 {
			it := Item{Point: coords(data[1:])}
			if mono || data[0]%2 == 0 {
				it.ID = len(products)
				products = append(products, it)
			} else {
				it.ID = 1000 + len(customers)
				customers = append(customers, it)
			}
			data = data[d+1:]
		}
		if mono {
			customers = products
		}
		if len(products) == 0 {
			return
		}
		db := rskyline.NewDB(d, products, rtree.Config{})
		e := NewEngine(db, mono)
		rsl := must(db.ReverseSkylineCtx(bg, customers, q))
		if len(rsl) == 0 {
			return
		}
		if len(rsl) > 6 {
			rsl = rsl[:6]
		}

		universe, _ := db.Universe()
		want := region.Set{}
		for i, c := range rsl {
			add := region.AntiDDR(c.Point, points(db.DynamicSkylineExcluding(c.Point, e.exclude(c))), universe)
			if i == 0 {
				want = add
			} else {
				want = want.IntersectSet(add)
			}
		}
		want = ensureContainsQ(want, q)
		if got := e.SafeRegion(q, rsl); !reflect.DeepEqual(got, want) {
			t.Fatalf("windowed safe region %v, reference fold %v (q %v, members %v)", got, want, q, rsl)
		}

		windows := must(e.memberWindows(bg, rsl, universe, cancel.SiteSafeRegion))
		for i, w := range windows {
			c := rsl[i]
			var inWindow []int
			for _, p := range db.DynamicSkylineExcluding(c.Point, e.exclude(c)) {
				if p.Point.Transform(c.Point).WeaklyDominates(w) {
					inWindow = append(inWindow, p.ID)
				}
			}
			got := idsOf(must(db.DynamicSkylineWithinCtx(bg, c.Point, e.exclude(c), w, 0)))
			sort.Ints(inWindow)
			if !slices.Equal(got, inWindow) {
				t.Fatalf("member %v, window %v: windowed DSL %v, full DSL in the window %v", c, w, got, inWindow)
			}
		}
	})
}

// idsOf returns the items' IDs in ascending order.
func idsOf(items []Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

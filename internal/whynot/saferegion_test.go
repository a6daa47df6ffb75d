package whynot

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func TestTruncateSafeRegion(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	sr := e.SafeRegion(paperQ, rsl)

	// Limit the price to [8, 12]: the truncated region must be inside both
	// the limits and the original safe region.
	limits := geom.NewRect(geom.NewPoint(8, 0), geom.NewPoint(12, 200))
	trunc := TruncateSafeRegion(sr, limits)
	if trunc.IsEmpty() {
		t.Fatal("truncated region should be non-empty (q is inside the limits)")
	}
	for _, r := range trunc {
		if !limits.ContainsRect(r) {
			t.Fatalf("truncated rect %v escapes the limits", r)
		}
	}
	inter := trunc.IntersectSet(sr)
	if diff := inter.Area() - trunc.Area(); diff > 1e-9 || diff < -1e-9 {
		t.Fatal("truncated region must be a subset of the safe region")
	}
	// Probing an interior point of the truncated region still keeps all
	// customers (the guarantee survives truncation).
	for _, r := range trunc {
		if r.Area() == 0 {
			continue
		}
		p := r.Center()
		for _, c := range rsl {
			if must(e.DB.WindowExistsCtx(bg, c.Point, p, c.ID)) {
				t.Fatalf("customer %d lost inside the truncated region at %v", c.ID, p)
			}
		}
	}
	// Limits excluding the whole safe region truncate to empty.
	far := geom.NewRect(geom.NewPoint(100, 100), geom.NewPoint(120, 120))
	if got := TruncateSafeRegion(sr, far); !got.IsEmpty() {
		t.Fatalf("disjoint limits must empty the region, got %v", got)
	}
}

func TestExpandSafeRegionAndLostCustomers(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))

	limits := geom.NewRect(geom.NewPoint(2.5, 20), geom.NewPoint(26, 90))
	exp := ExpandSafeRegion(limits)
	if len(exp) != 1 || !exp[0].ContainsRect(limits) {
		t.Fatalf("expanded region = %v", exp)
	}
	// Moving far away loses customers, and LostCustomers reports them.
	lost := must(e.LostCustomersCtx(bg, geom.NewPoint(26, 20), rsl))
	if len(lost) == 0 {
		t.Fatal("a drastic move should lose at least one customer")
	}
	// Staying put loses nobody.
	if got := must(e.LostCustomersCtx(bg, paperQ, rsl)); len(got) != 0 {
		t.Fatalf("staying at q lost %v", got)
	}
	// Consistency: every reported-lost customer really fails the window
	// test, and every kept customer passes it.
	lostSet := map[int]bool{}
	for _, c := range lost {
		lostSet[c.ID] = true
	}
	for _, c := range rsl {
		fails := must(e.DB.WindowExistsCtx(bg, c.Point, geom.NewPoint(26, 20), c.ID))
		if fails != lostSet[c.ID] {
			t.Fatalf("LostCustomers inconsistent for %d", c.ID)
		}
	}
}

// The approx store must also work when queried for customers it has not
// precomputed (exact fallback path).
func TestApproxSafeRegionFallback(t *testing.T) {
	products := randProducts(400, 777)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	// Store covers only the first 10 customers.
	store := e.BuildApproxStore(products[:10], 5, 0)
	rng := rand.New(rand.NewSource(778))
	for trial := 0; trial < 30; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
		if len(rsl) == 0 || len(rsl) > 8 {
			continue
		}
		approx := e.ApproxSafeRegion(q, rsl, store)
		if !approx.Contains(q) {
			t.Fatal("approx safe region with fallback must contain q")
		}
		// Still a subset of the exact safe region.
		exact := e.SafeRegion(q, rsl)
		inter := approx.IntersectSet(exact)
		if diff := inter.Area() - approx.Area(); diff > 1e-6*(1+approx.Area()) || diff < -1e-6*(1+approx.Area()) {
			t.Fatal("fallback approx region not a subset of the exact one")
		}
		return
	}
	t.Skip("no suitable query sampled")
}

func TestSafeRegionNoCustomers(t *testing.T) {
	e := fig1Engine()
	sr := e.SafeRegion(paperQ, nil)
	if !sr.Contains(paperQ) {
		t.Fatal("empty-RSL safe region must contain q")
	}
	// With nobody to lose, the whole data extent is reachable.
	u, _ := e.DB.Universe()
	if !sr.Contains(u.Lo) || !sr.Contains(u.Hi) {
		t.Fatal("empty-RSL safe region must span the universe")
	}
	// Approx variant behaves identically.
	store := e.BuildApproxStore(nil, 5, 0)
	if got := e.ApproxSafeRegion(paperQ, nil, store); !got.Contains(u.Hi) {
		t.Fatal("approx empty-RSL safe region must span the universe")
	}
}

// DSL with exclusion must equal the brute-force DSL over P minus the record.
func TestDynamicSkylineExcludingMatchesBrute(t *testing.T) {
	products := randProducts(300, 888)
	db := rskyline.NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(889))
	for trial := 0; trial < 20; trial++ {
		c := products[rng.Intn(len(products))]
		got := map[int]bool{}
		for _, it := range db.DynamicSkylineExcluding(c.Point, c.ID) {
			got[it.ID] = true
		}
		want := map[int]bool{}
		for i, a := range products {
			if a.ID == c.ID {
				continue
			}
			dominated := false
			for j, b := range products {
				if i == j || b.ID == c.ID {
					continue
				}
				if geom.DynDominates(c.Point, b.Point, a.Point) {
					dominated = true
					break
				}
			}
			if !dominated {
				want[a.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d skyline points, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing %d", trial, id)
			}
		}
	}
}

// Region-level sanity for safe regions on random data: exactness by probing.
func TestSafeRegionExactnessRandom(t *testing.T) {
	products := randProducts(250, 999)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(1001))
	tested := 0
	for trial := 0; trial < 40 && tested < 4; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
		if len(rsl) < 2 || len(rsl) > 8 {
			continue
		}
		tested++
		sr := e.SafeRegion(q, rsl)
		for probe := 0; probe < 300; probe++ {
			p := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			safe := true
			for _, c := range rsl {
				if must(e.DB.WindowExistsCtx(bg, c.Point, p, c.ID)) {
					safe = false
					break
				}
			}
			if safe != sr.Contains(p) {
				// Random probes hit the closed boundary with probability
				// zero; any mismatch is a real error.
				t.Fatalf("trial %d: probe %v safe=%v inRegion=%v", trial, p, safe, sr.Contains(p))
			}
		}
	}
	if tested == 0 {
		t.Skip("no suitable queries sampled")
	}
}

func TestOptionsWeightsChangeBestCandidate(t *testing.T) {
	e := fig1Engine()
	c1 := Item{ID: 1, Point: geom.NewPoint(5, 30)}
	// Equal weights prefer the mileage move or price move depending on the
	// normalised spans; forcing all weight onto one dimension must flip the
	// preference between the two paper candidates (5,48.5) and (8,30).
	priceOnly := e.MWP(c1, paperQ, Options{WeightsC: []float64{1, 0}})
	if !priceOnly.Best().Point.ApproxEqual(geom.NewPoint(5, 48.5), 1e-9) {
		t.Fatalf("price-weighted best = %v, want the mileage move (5, 48.5)", priceOnly.Best().Point)
	}
	mileageOnly := e.MWP(c1, paperQ, Options{WeightsC: []float64{0, 1}})
	if !mileageOnly.Best().Point.ApproxEqual(geom.NewPoint(8, 30), 1e-9) {
		t.Fatalf("mileage-weighted best = %v, want the price move (8, 30)", mileageOnly.Best().Point)
	}
}

func TestSortDimOptionStillValid(t *testing.T) {
	products := randProducts(300, 1234)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(1235))
	tested := 0
	for trial := 0; trial < 50 && tested < 10; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		ct := products[rng.Intn(len(products))]
		res := e.MWP(ct, q, Options{SortDim: 1})
		if res.AlreadyMember {
			continue
		}
		tested++
		for _, cand := range res.Candidates {
			if !must(e.ValidateWhyNotMoveCtx(bg, ct, q, cand.Point, 1e-7)) {
				t.Fatalf("SortDim=1 candidate %v invalid", cand.Point)
			}
		}
		// Both sort dimensions must reach the same optimum cost (the
		// candidate set is the same staircase enumerated differently).
		alt := e.MWP(ct, q, Options{SortDim: 0})
		if d := res.Best().Cost - alt.Best().Cost; d > 1e-9 || d < -1e-9 {
			t.Fatalf("sort-dim changed the optimum: %v vs %v", res.Best().Cost, alt.Best().Cost)
		}
	}
	if tested == 0 {
		t.Fatal("no cases sampled")
	}
}

func TestRegionEquivalenceHelperOnSafeRegions(t *testing.T) {
	// The same safe region computed twice must be equivalent.
	e := fig1Engine()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, fig1(), paperQ))
	a := e.SafeRegion(paperQ, rsl)
	b := e.SafeRegion(paperQ, rsl)
	if !region.Equivalent(a, b) {
		t.Fatal("safe region computation must be deterministic")
	}
}

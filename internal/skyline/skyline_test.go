package skyline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// fig1Points is the running-example dataset of the paper (Fig. 1a), in
// (price K$, mileage Kmi).
// dynamicBBS and globalSkylineBBS run the checked traversals with no
// checker, counting into a fresh Counts.
func dynamicBBS(t *rtree.Tree, c geom.Point) []Item {
	out, _ := DynamicBBSExcludingChecked(nil, new(obs.Counts), t, c, NoExclude, nil, 0)
	return out
}

func globalSkylineBBS(t *rtree.Tree, q geom.Point) []Item {
	gs, _ := GlobalSkylineBBSChecked(nil, new(obs.Counts), t, q)
	return gs.Members
}

func fig1Points() []Item {
	coords := [][2]float64{
		{5, 30},   // pt1
		{7.5, 42}, // pt2
		{2.5, 70}, // pt3
		{7.5, 90}, // pt4
		{24, 20},  // pt5
		{20, 50},  // pt6
		{26, 70},  // pt7
		{16, 80},  // pt8
	}
	items := make([]Item, len(coords))
	for i, c := range coords {
		items[i] = Item{ID: i + 1, Point: geom.NewPoint(c[0], c[1])}
	}
	return items
}

func idSet(items []Item) map[int]bool {
	s := make(map[int]bool, len(items))
	for _, it := range items {
		s[it.ID] = true
	}
	return s
}

func sameIDs(t *testing.T, got []Item, want ...int) {
	t.Helper()
	g := idSet(got)
	if len(g) != len(want) {
		t.Fatalf("got %d skyline points %v, want %d %v", len(g), keys(g), len(want), want)
	}
	for _, id := range want {
		if !g[id] {
			t.Fatalf("missing id %d in %v", id, keys(g))
		}
	}
}

func keys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Paper Fig. 1(b): SK = {p1, p3, p5}.
func TestStaticSkylinePaperExample(t *testing.T) {
	tr := rtree.BulkLoad(2, fig1Points(), rtree.Config{})
	sameIDs(t, BBS(tr), 1, 3, 5)
}

// staticSkylines computes the static skyline of items every way the package
// can: BBS, and the dynamic skyline around the origin by the scan and by the
// index, which is the static one for the non-negative test data.
func staticSkylines(dims int, items []Item) map[string][]Item {
	tr := rtree.BulkLoad(dims, items, rtree.Config{})
	origin := make(geom.Point, dims)
	return map[string][]Item{
		"BBS":        BBS(tr),
		"Dynamic":    Dynamic(items, origin),
		"DynamicBBS": dynamicBBS(tr, origin),
	}
}

// Paper Fig. 2(a): DSL(q) = {p2, p6} for q=(8.5,55) over pt1..pt8 minus pt2?
// No — over all of pt1..pt8 treated as products: the paper states
// DSL(q) = {p2, p6}.
func TestDynamicSkylinePaperExampleQ(t *testing.T) {
	items := fig1Points()
	q := geom.NewPoint(8.5, 55)
	sameIDs(t, Dynamic(items, q), 2, 6)
	tr := rtree.BulkLoad(2, items, rtree.Config{})
	sameIDs(t, dynamicBBS(tr, q), 2, 6)
}

// Paper §I: the dynamic skyline of c2 = pt2 over {pt1, pt3..pt8} is
// {p1, p4, p6}.
func TestDynamicSkylinePaperExampleC2(t *testing.T) {
	var items []Item
	for _, it := range fig1Points() {
		if it.ID != 2 {
			items = append(items, it)
		}
	}
	c2 := geom.NewPoint(7.5, 42)
	sameIDs(t, Dynamic(items, c2), 1, 4, 6)
	// Adding q to the products puts q into DSL(c2) as well (paper: {p1,p4,p6,q}).
	q := Item{ID: 99, Point: geom.NewPoint(8.5, 55)}
	sameIDs(t, Dynamic(append(items, q), c2), 1, 4, 6, 99)
}

func randItems(n, dims int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		items[i] = Item{ID: i, Point: p}
	}
	return items
}

// bruteSkyline is the oracle: O(n²) pairwise strict-dominance filter.
func bruteSkyline(items []Item) []Item {
	var out []Item
	for i, a := range items {
		dominated := false
		for j, b := range items {
			if i != j && b.Point.Dominates(a.Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for seed := int64(0); seed < 5; seed++ {
			items := randItems(400, dims, seed)
			want := idSet(bruteSkyline(items))
			for name, sky := range staticSkylines(dims, items) {
				got := idSet(sky)
				if len(got) != len(want) {
					t.Fatalf("dims=%d seed=%d %s: %d points, want %d", dims, seed, name, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("dims=%d seed=%d %s missing id %d", dims, seed, name, id)
					}
				}
			}
		}
	}
}

func bruteDynamicSkyline(items []Item, c geom.Point) []Item {
	var out []Item
	for i, a := range items {
		dominated := false
		for j, b := range items {
			if i != j && geom.DynDominates(c, b.Point, a.Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// DynamicBBS must agree with the brute-force oracle on every way a tree gets
// built: STR bulk loading, and Insert with a Delete churn (splits, forced
// reinsertion and condensing), where every internal rectangle the traversal
// bounds nodes by was maintained incrementally.
func TestDynamicAgreesWithBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		dims := 2 + trial%3
		items := randItems(300, dims, int64(trial))
		c := make(geom.Point, dims)
		for d := range c {
			c[d] = rng.Float64() * 100
		}
		want := keys(idSet(bruteDynamicSkyline(items, c)))
		sameIDsNamed(t, fmt.Sprintf("trial %d Dynamic", trial), Dynamic(items, c), want...)
		trees := map[string]*rtree.Tree{
			"bulk":         rtree.BulkLoad(dims, items, rtree.Config{}),
			"insert":       churnedTree(dims, items, rtree.Config{}, nil),
			"insertDelete": churnedTree(dims, items, rtree.Config{MaxEntries: 6, MinEntries: 2}, rng),
		}
		for name, tr := range trees {
			sameIDsNamed(t, fmt.Sprintf("trial %d DynamicBBS, %s tree", trial, name), dynamicBBS(tr, c), want...)
		}
	}
}

// churnedTree inserts items one by one. With a non-nil rng it also inserts a
// transient item after each one, then deletes the transients in random order,
// so the final tree holds exactly items but has been through deletes.
func churnedTree(dims int, items []Item, cfg rtree.Config, rng *rand.Rand) *rtree.Tree {
	tr := rtree.New(dims, cfg)
	var transient []Item
	for _, it := range items {
		tr.Insert(it)
		if rng == nil {
			continue
		}
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		ghost := Item{ID: 1_000_000 + it.ID, Point: p}
		tr.Insert(ghost)
		transient = append(transient, ghost)
	}
	if rng != nil {
		rng.Shuffle(len(transient), func(i, j int) { transient[i], transient[j] = transient[j], transient[i] })
	}
	for _, g := range transient {
		if !tr.Delete(g) {
			panic("churnedTree: transient item not found")
		}
	}
	return tr
}

func TestSkylineWithDuplicates(t *testing.T) {
	items := []Item{
		{ID: 1, Point: geom.NewPoint(1, 1)},
		{ID: 2, Point: geom.NewPoint(1, 1)}, // duplicate of 1
		{ID: 3, Point: geom.NewPoint(2, 2)},
	}
	for name, got := range staticSkylines(2, items) {
		sameIDsNamed(t, name, got, 1, 2)
	}
}

func sameIDsNamed(t *testing.T, name string, got []Item, want ...int) {
	t.Helper()
	g := idSet(got)
	if len(g) != len(want) {
		t.Fatalf("%s: got %v, want %v", name, keys(g), want)
	}
	for _, id := range want {
		if !g[id] {
			t.Fatalf("%s: missing %d", name, id)
		}
	}
}

func TestSkylineEmptyAndSingle(t *testing.T) {
	for name, got := range staticSkylines(2, nil) {
		if len(got) != 0 {
			t.Errorf("%s of no items should be empty: %v", name, got)
		}
	}
	one := []Item{{ID: 7, Point: geom.NewPoint(3, 3)}}
	for name, got := range staticSkylines(2, one) {
		if len(got) != 1 || got[0].ID != 7 {
			t.Errorf("%s single item: %v", name, got)
		}
	}
}

func TestSkylineMutualNonDominance(t *testing.T) {
	// Property: no pair of returned skyline points dominates each other, and
	// every non-returned point is dominated by some returned point.
	items := randItems(500, 3, 77)
	sky := BBS(rtree.BulkLoad(3, items, rtree.Config{}))
	inSky := idSet(sky)
	for i, a := range sky {
		for j, b := range sky {
			if i != j && a.Point.Dominates(b.Point) {
				t.Fatalf("skyline points %d dominates %d", a.ID, b.ID)
			}
		}
	}
	for _, it := range items {
		if inSky[it.ID] {
			continue
		}
		covered := false
		for _, s := range sky {
			if s.Point.Dominates(it.Point) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("non-skyline point %d not dominated by any skyline point", it.ID)
		}
	}
}

func TestGlobalDominates(t *testing.T) {
	q := geom.NewPoint(0, 0)
	a := geom.NewPoint(1, 1)
	b := geom.NewPoint(2, 2)
	if !GlobalDominates(q, a, b) {
		t.Error("same-orthant transformed dominance should hold")
	}
	// Opposite orthants never globally dominate.
	c := geom.NewPoint(-2, -2)
	if GlobalDominates(q, a, c) {
		t.Error("opposite orthant must not globally dominate")
	}
	// Mirror point with same absolute coords: same closed orthant required.
	d := geom.NewPoint(-1, 2)
	e := geom.NewPoint(-2, 3)
	if !GlobalDominates(q, d, e) {
		t.Error("same (negative-x) orthant dominance should hold")
	}
}

// Soundness of global dominance as an RSL filter: if a globally dominates b
// w.r.t. q, then a dynamically dominates q w.r.t. b (so b ∉ RSL(q)).
func TestGlobalDominanceSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 5000; trial++ {
		q := geom.NewPoint(rng.Float64()*10-5, rng.Float64()*10-5)
		a := geom.NewPoint(rng.Float64()*10-5, rng.Float64()*10-5)
		b := geom.NewPoint(rng.Float64()*10-5, rng.Float64()*10-5)
		if GlobalDominates(q, a, b) {
			checked++
			if !geom.DynDominates(b, a, q) {
				t.Fatalf("global dominance unsound: q=%v a=%v b=%v", q, a, b)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no global dominance pairs sampled; test vacuous")
	}
}

func TestGlobalSkylineSuperset(t *testing.T) {
	items := randItems(200, 2, 31)
	q := geom.NewPoint(50, 50)
	gs := idSet(globalSkylineBBS(rtree.BulkLoad(2, items, rtree.Config{}), q))
	// Every dynamic skyline point must be in the global skyline.
	for _, it := range Dynamic(items, q) {
		if !gs[it.ID] {
			t.Fatalf("dynamic skyline point %d missing from global skyline", it.ID)
		}
	}
}

func TestApproxDynamic(t *testing.T) {
	items := randItems(2000, 2, 55)
	c := geom.NewPoint(50, 50)
	dsl := Dynamic(items, c)
	if len(dsl) < 6 {
		t.Skipf("need a larger DSL for this test, got %d", len(dsl))
	}
	k := 3
	approx := ApproxDynamic(dsl, c, k, 0)
	if len(approx) > k+1 {
		t.Fatalf("approx DSL has %d points, want ≤ %d", len(approx), k+1)
	}
	// Approx points are a subset of the DSL.
	full := idSet(dsl)
	for _, a := range approx {
		if !full[a.ID] {
			t.Fatalf("approx point %d not in full DSL", a.ID)
		}
	}
	// First and last of the sorted sequence are retained.
	sortedTr := make([]geom.Point, len(dsl))
	for i, it := range dsl {
		sortedTr[i] = it.Point.Transform(c)
	}
	minT, maxT := sortedTr[0][0], sortedTr[0][0]
	for _, tr := range sortedTr {
		if tr[0] < minT {
			minT = tr[0]
		}
		if tr[0] > maxT {
			maxT = tr[0]
		}
	}
	gotMin, gotMax := false, false
	for _, a := range approx {
		tr := a.Point.Transform(c)
		if tr[0] == minT {
			gotMin = true
		}
		if tr[0] == maxT {
			gotMax = true
		}
	}
	if !gotMin || !gotMax {
		t.Fatal("approx DSL must retain the first and last sorted points")
	}
}

func TestApproxDynamicSmallDSL(t *testing.T) {
	items := fig1Points()
	c := geom.NewPoint(8.5, 55)
	dsl := Dynamic(items, c) // 2 points
	approx := ApproxDynamic(dsl, c, 10, 0)
	if len(approx) != len(dsl) {
		t.Fatalf("small DSL should be returned whole: %d vs %d", len(approx), len(dsl))
	}
	if got := ApproxDynamic(dsl, c, 0, 0); len(got) == 0 {
		t.Fatal("k ≤ 0 must be tolerated")
	}
}

// naiveGlobalSkyline is the O(n²) oracle for the branch-and-bound version.
func naiveGlobalSkyline(items []Item, q geom.Point) []Item {
	var sky []Item
	for i, cand := range items {
		dominated := false
		for j, other := range items {
			if i != j && GlobalDominates(q, other.Point, cand.Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, cand)
		}
	}
	return sky
}

func TestGlobalSkylineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		dims := 2 + trial%2
		items := randItems(300, dims, int64(trial+400))
		q := make(geom.Point, dims)
		for d := range q {
			q[d] = rng.Float64() * 100
		}
		want := idSet(naiveGlobalSkyline(items, q))
		got := idSet(globalSkylineBBS(rtree.BulkLoad(dims, items, rtree.Config{}), q))
		if len(got) != len(want) {
			t.Fatalf("trial %d: fast=%d naive=%d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing %d", trial, id)
			}
		}
	}
}

func TestGlobalSkylineBoundaryPoints(t *testing.T) {
	// Points exactly on q's axes must act as dominators on both sides.
	q := geom.NewPoint(5, 5)
	items := []Item{
		{ID: 1, Point: geom.NewPoint(5, 6)}, // on the vertical axis, dist (0,1)
		{ID: 2, Point: geom.NewPoint(4, 7)}, // left orthant, dist (1,2): globally dominated by 1
		{ID: 3, Point: geom.NewPoint(6, 7)}, // right orthant, dist (1,2): globally dominated by 1
		{ID: 4, Point: geom.NewPoint(3, 5)}, // on the horizontal axis, dist (2,0)
	}
	want := idSet(naiveGlobalSkyline(items, q))
	got := idSet(globalSkylineBBS(rtree.BulkLoad(2, items, rtree.Config{}), q))
	if len(got) != len(want) {
		t.Fatalf("fast=%v naive=%v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing %d (fast=%v naive=%v)", id, got, want)
		}
	}
	if got[2] || got[3] {
		t.Fatal("axis point must dominate both neighbouring orthants")
	}
}

// A record lying exactly at q is the one degenerate case of global
// dominance: its transformed distances are all zero, so it weakly dominates
// every point, yet it only ties window distances and blocks no customer.
// Before the fix it pruned every other candidate, collapsing RSL(q) to just
// itself; the sim harness caught this when a safe-region probe landed a
// query exactly on a surviving record.
func TestGlobalDominanceRecordAtQuery(t *testing.T) {
	q := geom.NewPoint(3, 4)
	atQ := geom.NewPoint(3, 4)
	other := geom.NewPoint(5, 9)
	if GlobalDominates(q, atQ, other) {
		t.Error("a record at q must not globally dominate: it ties every window distance")
	}
	if !GlobalDominates(q, other, geom.NewPoint(7, 11)) {
		t.Error("ordinary same-orthant dominance must still hold")
	}

	// RSL semantics: with a record at q present, every customer whose window
	// membership is unaffected must stay a candidate. Compare the global
	// skyline (naive and BBS) against the brute-force reverse skyline.
	items := randItems(200, 2, 77)
	items = append(items, Item{ID: 9999, Point: append(geom.Point(nil), q...)})
	inRSL := func(c Item) bool {
		for _, p := range items {
			if p.ID != c.ID && geom.DynDominates(c.Point, p.Point, q) {
				return false
			}
		}
		return true
	}
	gs := idSet(naiveGlobalSkyline(items, q))
	bbs := idSet(globalSkylineBBS(rtree.BulkLoad(2, items, rtree.Config{}), q))
	members := 0
	for _, c := range items {
		if !inRSL(c) {
			continue
		}
		members++
		if !gs[c.ID] {
			t.Errorf("RSL member %d pruned from the naive global skyline by the record at q", c.ID)
		}
		if !bbs[c.ID] {
			t.Errorf("RSL member %d pruned from GlobalSkylineBBS by the record at q", c.ID)
		}
		for _, p := range items {
			if p.ID != c.ID && GlobalDominates(q, p.Point, c.Point) {
				t.Errorf("GlobalDominates prunes RSL member %d via product %d", c.ID, p.ID)
			}
		}
	}
	if members < 2 {
		t.Fatalf("test vacuous: only %d RSL members (need the record at q plus others)", members)
	}
}

// DynamicBBS allocates per skyline member (its own transformed copy and the
// result slices), not per node visited or entry pushed: boxes are bounded
// in per-traversal scratch buffers, nodes by the rectangle their parent
// stores, and the heap holds typed entries. The tree here makes the
// traversal visit several times more nodes than the bound allows
// allocations, so a per-node allocation cannot hide under it.
func TestDynamicBBSAllocsScaleWithSkyline(t *testing.T) {
	const dims = 3
	items := randItems(20000, dims, 7)
	tr := rtree.BulkLoad(dims, items, rtree.Config{})
	c := geom.NewPoint(37, 37, 37)
	sky := dynamicBBS(tr, c)
	tr.ResetAccesses()
	dynamicBBS(tr, c)
	nodes := tr.Accesses()
	bound := 2*len(sky) + 32
	if nodes <= bound {
		t.Fatalf("test tree too small: %d node visits against an allocation bound of %d", nodes, bound)
	}
	allocs := testing.AllocsPerRun(10, func() { dynamicBBS(tr, c) })
	if allocs > float64(bound) {
		t.Fatalf("DynamicBBS: %.0f allocations for a %d-point skyline over %d node visits; want at most %d",
			allocs, len(sky), nodes, bound)
	}
}

package rtree

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

func randItems(n, dims int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 1000
		}
		items[i] = Item{ID: i, Point: p}
	}
	return items
}

// bruteRange is the oracle for range queries.
func bruteRange(items []Item, q geom.Rect) []int {
	var ids []int
	for _, it := range items {
		if q.Contains(it.Point) {
			ids = append(ids, it.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func idsOf(items []Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

// Test shorthands for the checked traversals: no cancellation, and the
// visits go to a throwaway tally (the tree's totals still count them).

func rangeQuery(tr *Tree, q geom.Rect) []Item {
	var out []Item
	_ = tr.SearchChecked(nil, new(obs.Counts), q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

func exists(tr *Tree, q geom.Rect, pred func(Item) bool) bool {
	found, _ := tr.ExistsChecked(nil, new(obs.Counts), q, pred)
	return found
}

func bestFirst(tr *Tree, itemKey func(geom.Point) float64, rectKey func(geom.Rect) float64,
	prune func(geom.Rect) bool, fn func(Item, float64) bool) {
	_ = tr.BestFirstChecked(nil, new(obs.Counts), itemKey, rectKey, prune, fn)
}

func guidedSearch(tr *Tree, q geom.Rect, order func(geom.Rect) float64, prune func(geom.Rect) bool, fn func(Item) bool) {
	_ = tr.GuidedSearchChecked(nil, new(obs.Counts), q, order, prune, fn)
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFanoutFromPageSize(t *testing.T) {
	// Paper setup: 1536-byte pages, 2-d entries = 2*2*8+8 = 40 bytes → M=38.
	cfg := Config{}.withDefaults(2)
	if cfg.MaxEntries != 38 {
		t.Errorf("2-d fanout = %d, want 38", cfg.MaxEntries)
	}
	if cfg.MinEntries != 15 {
		t.Errorf("2-d min entries = %d, want 15", cfg.MinEntries)
	}
}

func TestInsertAndRangeQuery(t *testing.T) {
	items := randItems(2000, 2, 1)
	tr := New(2, Config{})
	for _, it := range items {
		tr.Insert(it)
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		a := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		b := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.NewRect(a, b)
		got := idsOf(rangeQuery(tr, q))
		want := bruteRange(items, q)
		if !equalIDs(got, want) {
			t.Fatalf("range query %v: got %d ids, want %d", q, len(got), len(want))
		}
	}
}

func TestSmallTreeStaysLeaf(t *testing.T) {
	tr := New(2, Config{})
	for i := 0; i < 5; i++ {
		tr.Insert(Item{ID: i, Point: geom.NewPoint(float64(i), float64(i))})
	}
	if tr.Height() != 1 {
		t.Errorf("5 items should fit in root leaf, height = %d", tr.Height())
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(2, Config{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty tree basics")
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree has no bounds")
	}
	if got := rangeQuery(tr, geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(1, 1))); len(got) != 0 {
		t.Error("range query on empty tree should be empty")
	}
	bestFirst(tr,
		func(p geom.Point) float64 { return p.L1(geom.NewPoint(0, 0)) },
		func(r geom.Rect) float64 { return r.MinDistL1(geom.NewPoint(0, 0)) },
		nil,
		func(Item, float64) bool { t.Error("best-first on empty tree yielded an item"); return false },
	)
	if got := tr.Items(); len(got) != 0 {
		t.Errorf("Items on empty tree = %v", got)
	}
}

func TestBulkLoadMatchesBrute(t *testing.T) {
	for _, n := range []int{1, 37, 38, 39, 500, 3000} {
		items := randItems(n, 2, int64(n))
		tr := BulkLoad(2, items, Config{})
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			// Bulk loading may produce slightly underfull rightmost nodes;
			// only size and coverage errors are fatal.
			t.Logf("n=%d: %v", n, err)
		}
		rng := rand.New(rand.NewSource(int64(n) + 7))
		for i := 0; i < 20; i++ {
			a := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
			b := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
			q := geom.NewRect(a, b)
			if !equalIDs(idsOf(rangeQuery(tr, q)), bruteRange(items, q)) {
				t.Fatalf("n=%d: bulk-loaded range query mismatch", n)
			}
		}
	}
}

func TestBulkLoad3D(t *testing.T) {
	items := randItems(4000, 3, 9)
	tr := BulkLoad(3, items, Config{})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		a := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		b := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		q := geom.NewRect(a, b)
		if !equalIDs(idsOf(rangeQuery(tr, q)), bruteRange(items, q)) {
			t.Fatal("3-d bulk-loaded range query mismatch")
		}
	}
}

func TestDelete(t *testing.T) {
	items := randItems(1500, 2, 4)
	tr := New(2, Config{})
	for _, it := range items {
		tr.Insert(it)
	}
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(len(items))
	deleted := map[int]bool{}
	for _, idx := range perm[:700] {
		if !tr.Delete(items[idx]) {
			t.Fatalf("Delete(%d) failed", items[idx].ID)
		}
		deleted[items[idx].ID] = true
	}
	if tr.Len() != 800 {
		t.Fatalf("Len after deletes = %d, want 800", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants after delete: %v", err)
	}
	var remaining []Item
	for _, it := range items {
		if !deleted[it.ID] {
			remaining = append(remaining, it)
		}
	}
	for i := 0; i < 30; i++ {
		a := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		b := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.NewRect(a, b)
		if !equalIDs(idsOf(rangeQuery(tr, q)), bruteRange(remaining, q)) {
			t.Fatal("range query mismatch after deletes")
		}
	}
	// Delete everything.
	for _, it := range remaining {
		if !tr.Delete(it) {
			t.Fatalf("final Delete(%d) failed", it.ID)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("tree not empty after deleting all: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(2, Config{})
	tr.Insert(Item{ID: 1, Point: geom.NewPoint(1, 1)})
	if tr.Delete(Item{ID: 2, Point: geom.NewPoint(1, 1)}) {
		t.Error("deleting a missing ID must fail")
	}
	if tr.Delete(Item{ID: 1, Point: geom.NewPoint(2, 2)}) {
		t.Error("deleting with a wrong point must fail")
	}
	if tr.Len() != 1 {
		t.Error("failed deletes must not change size")
	}
}

func TestExistsShortCircuits(t *testing.T) {
	items := randItems(1000, 2, 6)
	tr := BulkLoad(2, items, Config{})
	all := geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(1000, 1000))
	if !exists(tr, all, nil) {
		t.Fatal("Exists over full range must be true")
	}
	visited := 0
	exists(tr, all, func(Item) bool { visited++; return true })
	if visited != 1 {
		t.Errorf("Exists visited %d items, want 1 (short circuit)", visited)
	}
	empty := geom.NewRect(geom.NewPoint(-10, -10), geom.NewPoint(-5, -5))
	if exists(tr, empty, nil) {
		t.Fatal("Exists over empty range must be false")
	}
	// Predicate filter: only even IDs in a thin stripe.
	if got := exists(tr, all, func(it Item) bool { return false }); got {
		t.Fatal("unsatisfiable predicate must yield false")
	}
}

func TestNearestNeighbors(t *testing.T) {
	items := randItems(2000, 2, 8)
	tr := BulkLoad(2, items, Config{})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p := geom.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		// The k nearest (in L1) are the first k a best-first traversal
		// emits.
		got := make([]Item, 0, k)
		bestFirst(tr,
			func(x geom.Point) float64 { return p.L1(x) },
			func(r geom.Rect) float64 { return r.MinDistL1(p) },
			nil,
			func(it Item, _ float64) bool {
				got = append(got, it)
				return len(got) < k
			},
		)
		if len(got) != k {
			t.Fatalf("kNN returned %d items, want %d", len(got), k)
		}
		// Oracle: sort all by distance.
		byDist := append([]Item(nil), items...)
		sort.Slice(byDist, func(i, j int) bool { return p.L1(byDist[i].Point) < p.L1(byDist[j].Point) })
		for i := range got {
			if p.L1(got[i].Point) != p.L1(byDist[i].Point) {
				t.Fatalf("kNN order mismatch at %d: %v vs %v", i, got[i].Point, byDist[i].Point)
			}
		}
	}
}

func TestBestFirstOrdering(t *testing.T) {
	items := randItems(1000, 2, 13)
	tr := BulkLoad(2, items, Config{})
	origin := geom.NewPoint(0, 0)
	prev := -1.0
	n := 0
	bestFirst(tr,
		func(p geom.Point) float64 { return origin.L1(p) },
		func(r geom.Rect) float64 { return r.MinDistL1(origin) },
		nil,
		func(it Item, key float64) bool {
			if key < prev {
				t.Fatalf("best-first keys not monotone: %v after %v", key, prev)
			}
			prev = key
			n++
			return true
		},
	)
	if n != len(items) {
		t.Fatalf("best-first visited %d items, want %d", n, len(items))
	}
}

func TestBestFirstPrune(t *testing.T) {
	items := randItems(1000, 2, 14)
	tr := BulkLoad(2, items, Config{})
	origin := geom.NewPoint(0, 0)
	// Prune everything with min L1 distance > 500: only close items emitted.
	var got []Item
	bestFirst(tr,
		func(p geom.Point) float64 { return origin.L1(p) },
		func(r geom.Rect) float64 { return r.MinDistL1(origin) },
		func(r geom.Rect) bool { return r.MinDistL1(origin) > 500 },
		func(it Item, _ float64) bool { got = append(got, it); return true },
	)
	for _, it := range got {
		if origin.L1(it.Point) > 500 {
			t.Fatalf("pruned item leaked: %v", it.Point)
		}
	}
	want := 0
	for _, it := range items {
		if origin.L1(it.Point) <= 500 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("prune emitted %d, want %d", len(got), want)
	}
}

func TestMinKeyItem(t *testing.T) {
	items := randItems(500, 2, 15)
	tr := BulkLoad(2, items, Config{})
	target := geom.NewPoint(500, 500)
	// The first item a best-first traversal emits minimises its key.
	var it Item
	ok := false
	bestFirst(tr,
		func(p geom.Point) float64 { return target.L1(p) },
		func(r geom.Rect) float64 { return r.MinDistL1(target) },
		nil,
		func(first Item, _ float64) bool { it, ok = first, true; return false },
	)
	if !ok {
		t.Fatal("best-first on a non-empty tree emitted nothing")
	}
	best := items[0]
	for _, cand := range items {
		if target.L1(cand.Point) < target.L1(best.Point) {
			best = cand
		}
	}
	if target.L1(it.Point) != target.L1(best.Point) {
		t.Fatalf("first best-first item = %v, want %v", it.Point, best.Point)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(2, Config{})
	p := geom.NewPoint(5, 5)
	for i := 0; i < 100; i++ {
		tr.Insert(Item{ID: i, Point: p})
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	got := rangeQuery(tr, geom.PointRect(p))
	if len(got) != 100 {
		t.Fatalf("duplicate query returned %d, want 100", len(got))
	}
	for i := 0; i < 100; i++ {
		if !tr.Delete(Item{ID: i, Point: p}) {
			t.Fatalf("delete duplicate %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatal("all duplicates should be gone")
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tr := New(2, Config{})
	live := map[int]Item{}
	nextID := 0
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			it := Item{ID: nextID, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
			nextID++
			tr.Insert(it)
			live[it.ID] = it
		} else {
			// Delete a random live item.
			for _, it := range live {
				if !tr.Delete(it) {
					t.Fatalf("interleaved delete failed for %v", it)
				}
				delete(live, it.ID)
				break
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	all := tr.Items()
	if len(all) != len(live) {
		t.Fatalf("Items() returned %d, want %d", len(all), len(live))
	}
	for _, it := range all {
		if want, ok := live[it.ID]; !ok || !want.Point.Equal(it.Point) {
			t.Fatalf("unexpected item %v", it)
		}
	}
}

func TestCustomFanout(t *testing.T) {
	tr := New(2, Config{MaxEntries: 4, MinEntries: 2})
	items := randItems(300, 2, 17)
	for _, it := range items {
		tr.Insert(it)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants with tiny fanout: %v", err)
	}
	if tr.Height() < 3 {
		t.Errorf("300 items at fanout 4 should build a deep tree, height = %d", tr.Height())
	}
	q := geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(1000, 1000))
	if got := len(rangeQuery(tr, q)); got != 300 {
		t.Fatalf("full range = %d, want 300", got)
	}
}

func TestStats(t *testing.T) {
	empty := New(2, Config{})
	es := empty.Stats()
	if es.Items != 0 || es.Nodes != 0 || es.Height != 1 {
		t.Fatalf("empty stats = %+v", es)
	}
	items := randItems(5000, 2, 19)
	tr := BulkLoad(2, items, Config{})
	s := tr.Stats()
	if s.Items != 5000 {
		t.Fatalf("Items = %d", s.Items)
	}
	if s.Height != tr.Height() || s.Nodes != s.LeafNodes+s.InternalNodes {
		t.Fatalf("inconsistent stats: %+v", s)
	}
	// STR bulk loading packs leaves nearly full.
	if s.AvgLeafFill < 0.85 {
		t.Errorf("bulk-loaded leaf fill = %.2f, want ≥ 0.85", s.AvgLeafFill)
	}
	if s.MaxEntries != 38 || s.MinEntries != 15 {
		t.Errorf("paper fanout not reflected: %+v", s)
	}
	// Insert-built trees satisfy at least the R* minimum fill.
	tr2 := New(2, Config{})
	for _, it := range items {
		tr2.Insert(it)
	}
	s2 := tr2.Stats()
	minFill := float64(s2.MinEntries) / float64(s2.MaxEntries)
	if s2.AvgLeafFill < minFill {
		t.Errorf("insert-built leaf fill %.2f below minimum %.2f", s2.AvgLeafFill, minFill)
	}
	// R* splits should keep sibling overlap modest compared to total area.
	if s2.OverlapArea < 0 {
		t.Error("negative overlap area")
	}
}

func TestAccessCounting(t *testing.T) {
	items := randItems(5000, 2, 23)
	tr := BulkLoad(2, items, Config{})
	if tr.Accesses() != 0 {
		t.Fatal("fresh tree should have zero accesses")
	}
	// A tiny range query touches far fewer nodes than a full scan.
	tr.ResetAccesses()
	rangeQuery(tr, geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(10, 10)))
	small := tr.Accesses()
	tr.ResetAccesses()
	rangeQuery(tr, geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(1000, 1000)))
	full := tr.Accesses()
	if small <= 0 || full <= small {
		t.Fatalf("access counts implausible: small=%d full=%d", small, full)
	}
	if full != tr.Stats().Nodes {
		t.Fatalf("full scan should touch every node: %d vs %d", full, tr.Stats().Nodes)
	}
	// Best-first with early exit touches a fraction of the tree.
	tr.ResetAccesses()
	centre := geom.NewPoint(500, 500)
	bestFirst(tr,
		func(p geom.Point) float64 { return centre.L1(p) },
		func(r geom.Rect) float64 { return r.MinDistL1(centre) },
		nil,
		func(Item, float64) bool { return false },
	)
	if nn := tr.Accesses(); nn <= 0 || nn >= full {
		t.Fatalf("NN accesses = %d, want between 1 and %d", nn, full)
	}
	tr.ResetAccesses()
	if tr.Accesses() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGuidedSearch(t *testing.T) {
	items := randItems(3000, 2, 29)
	tr := BulkLoad(2, items, Config{})
	origin := geom.NewPoint(0, 0)
	window := geom.NewRect(geom.NewPoint(100, 100), geom.NewPoint(400, 400))
	// Without pruning, GuidedSearch must enumerate exactly the window.
	var got []int
	guidedSearch(tr, window,
		func(r geom.Rect) float64 { return r.MinDistL1(origin) },
		nil,
		func(it Item) bool { got = append(got, it.ID); return true })
	want := bruteRange(items, window)
	if !equalIDs(idsOf(itemsByID(items, got)), want) {
		t.Fatalf("guided search found %d, want %d", len(got), len(want))
	}
	// Ordering heuristic: the very first emitted item comes from the child
	// subtree nearest the origin, so it cannot be the globally farthest.
	if len(got) > 1 {
		first := pointByID(items, got[0])
		worst := 0.0
		for _, id := range want {
			if d := origin.L1(pointByID(items, id)); d > worst {
				worst = d
			}
		}
		if origin.L1(first) == worst {
			t.Error("guided order ignored the order function")
		}
	}
	// Early exit stops the traversal.
	n := 0
	guidedSearch(tr, window,
		func(r geom.Rect) float64 { return r.MinDistL1(origin) },
		nil,
		func(Item) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early exit visited %d items", n)
	}
	// Prune-everything yields nothing.
	guidedSearch(tr, window,
		func(r geom.Rect) float64 { return 0 },
		func(geom.Rect) bool { return true },
		func(Item) bool { t.Fatal("pruned traversal yielded an item"); return false })
	// Empty tree no-op.
	empty := New(2, Config{})
	guidedSearch(empty, window, func(geom.Rect) float64 { return 0 }, nil,
		func(Item) bool { t.Fatal("empty tree yielded an item"); return false })
}

func itemsByID(items []Item, ids []int) []Item {
	m := map[int]Item{}
	for _, it := range items {
		m[it.ID] = it
	}
	out := make([]Item, 0, len(ids))
	for _, id := range ids {
		out = append(out, m[id])
	}
	return out
}

func pointByID(items []Item, id int) geom.Point {
	for _, it := range items {
		if it.ID == id {
			return it.Point
		}
	}
	return nil
}

func TestConfigAndBoundsAccessors(t *testing.T) {
	tr := BulkLoad(2, randItems(100, 2, 31), Config{})
	if tr.Config().MaxEntries != 38 {
		t.Fatalf("Config = %+v", tr.Config())
	}
	if _, ok := tr.Bounds(); !ok {
		t.Fatal("non-empty tree must have bounds")
	}
}

// TestBulkLoadThenInsertNoAliasing is the regression test for the STR slice
// aliasing bug: strTile's small-group base case used to return sub-slices of
// one shared backing array, so the first leaf kept spare capacity overlapping
// its sibling and the first post-bulk-load Insert silently overwrote the
// sibling's first entry — one item vanished from queries and the inserted
// item was reported twice. Found by the internal/sim model-based harness.
func TestBulkLoadThenInsertNoAliasing(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for _, n := range []int{30, 32, 48, 100, 333} {
			items := randItems(n, dims, int64(7*n+dims))
			tr := BulkLoad(dims, items, Config{})
			for k, extra := range randItems(8, dims, int64(n)) {
				extra.ID = 1_000_000 + k
				tr.Insert(extra)
				items = append(items, extra)
			}
			seen := make(map[int]int, len(items))
			for _, it := range tr.Items() {
				seen[it.ID]++
			}
			for _, it := range items {
				if seen[it.ID] != 1 {
					t.Fatalf("dims=%d n=%d: item %d stored %d times after bulk+insert",
						dims, n, it.ID, seen[it.ID])
				}
				got := rangeQuery(tr, geom.PointRect(it.Point))
				found := false
				for _, g := range got {
					found = found || g.ID == it.ID
				}
				if !found {
					t.Fatalf("dims=%d n=%d: item %d invisible to window query", dims, n, it.ID)
				}
			}
		}
	}
}

// Every internal entry must store exactly its child's MBR, not merely a
// cover of it: best-first traversals bound a popped node by the stored
// rectangle, so a loose one would change which subtrees get pruned. The check
// runs after every operation of a long insert/delete churn, with the paper's
// fanout and a tiny one that forces deep trees, splits and reinsertions.
// (Bulk-loaded trees are checked by TestBulkLoadMatchesBrute.)
func TestStoredRectsAreExactMBRs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + int(seed%2)
		cfg := Config{}
		if seed%4 >= 2 {
			cfg = Config{MaxEntries: 6, MinEntries: 2}
		}
		tr := New(dims, cfg)
		live := map[int]Item{}
		nextID := 0
		for op := 0; op < 1500; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				p := make(geom.Point, dims)
				for d := range p {
					p[d] = rng.Float64() * 1000
				}
				it := Item{ID: nextID, Point: p}
				nextID++
				tr.Insert(it)
				live[it.ID] = it
			} else {
				victim := rng.Intn(nextID)
				it, ok := live[victim]
				if !ok {
					continue
				}
				if !tr.Delete(it) {
					t.Fatalf("seed %d op %d: delete of live item %d failed", seed, op, victim)
				}
				delete(live, victim)
			}
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// The typed heap pops in exactly container/heap's order, ties included: with
// keys drawn from a handful of values, the identity of every popped element
// must match a container/heap driven by the same pushes and pops.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := make([]entry, 400)
		var got pq
		want := &refHeap{}
		for op := 0; op < 2000; op++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				i := rng.Intn(len(slots))
				key := float64(rng.Intn(4))
				got.push(pqEntry{key: key, e: &slots[i]})
				heap.Push(want, pqEntry{key: key, e: &slots[i]})
				continue
			}
			g, w := got.pop(), heap.Pop(want).(pqEntry)
			if g != w {
				t.Fatalf("seed %d op %d: popped (%v, %p), container/heap pops (%v, %p)", seed, op, g.key, g.e, w.key, w.e)
			}
		}
	}
}

// refHeap drives container/heap over the same elements as pq.
type refHeap []pqEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pqEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

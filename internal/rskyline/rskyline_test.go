package rskyline

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cancel"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// fig1 returns the paper's running-example dataset (Fig. 1a).
func fig1() []Item {
	coords := [][2]float64{
		{5, 30}, {7.5, 42}, {2.5, 70}, {7.5, 90},
		{24, 20}, {20, 50}, {26, 70}, {16, 80},
	}
	items := make([]Item, len(coords))
	for i, c := range coords {
		items[i] = Item{ID: i + 1, Point: geom.NewPoint(c[0], c[1])}
	}
	return items
}

var paperQ = geom.NewPoint(8.5, 55)

func fig1DB() *DB { return NewDB(2, fig1(), rtree.Config{}) }

// bg is the context of every test call that is not about cancellation.
var bg = context.Background()

// must unwraps the result of a ctx-form call under bg, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func ids(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
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

// Paper Fig. 4(b): window query of c1 = pt1 returns {p2}.
func TestWindowQueryC1(t *testing.T) {
	db := fig1DB()
	c1 := geom.NewPoint(5, 30)
	got := must(db.WindowQueryCtx(bg, c1, paperQ, 1))
	if !equalInts(ids(got), []int{2}) {
		t.Fatalf("window_query(c1, q) = %v, want [2]", ids(got))
	}
	if !must(db.WindowExistsCtx(bg, c1, paperQ, 1)) {
		t.Fatal("WindowExists must agree")
	}
}

// Paper Fig. 4(a): window query of c2 = pt2 returns nothing, so c2 ∈ RSL(q).
func TestWindowQueryC2(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	if got := must(db.WindowQueryCtx(bg, c2, paperQ, 2)); len(got) != 0 {
		t.Fatalf("window_query(c2, q) = %v, want empty", ids(got))
	}
	if must(db.WindowExistsCtx(bg, c2, paperQ, 2)) {
		t.Fatal("WindowExists must agree")
	}
	if !db.IsReverseSkyline(Item{ID: 2, Point: c2}, paperQ) {
		t.Fatal("c2 must be in RSL(q) (paper Fig. 4a)")
	}
}

// Paper §V.B example: RSL(q) over the Fig. 1 data (monochromatic) is
// {c2, c3, c4, c6, c8}.
func TestReverseSkylinePaperExample(t *testing.T) {
	db := fig1DB()
	customers := fig1()
	got := db.ReverseSkylineFiltered(customers, paperQ)
	want := []int{2, 3, 4, 6, 8}
	if !equalInts(ids(got), want) {
		t.Fatalf("RSL(q) = %v, want %v", ids(got), want)
	}
}

// bruteIsRSL checks membership from first principles: q must be in the
// dynamic skyline of c over P∪{q} with c's own record removed.
func bruteIsRSL(products []Item, c Item, q geom.Point) bool {
	for _, p := range products {
		if p.ID == c.ID {
			continue
		}
		if geom.DynDominates(c.Point, p.Point, q) {
			return false
		}
	}
	return true
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

func TestReverseSkylineMatchesBruteRandom(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			products := randItems(500, dims, seed)
			db := NewDB(dims, products, rtree.Config{})
			rng := rand.New(rand.NewSource(seed + 100))
			q := make(geom.Point, dims)
			for d := range q {
				q[d] = rng.Float64() * 100
			}
			var want []int
			for _, c := range products {
				if bruteIsRSL(products, c, q) {
					want = append(want, c.ID)
				}
			}
			sort.Ints(want)
			gotF := ids(db.ReverseSkylineFiltered(products, q))
			if !equalInts(gotF, want) {
				t.Fatalf("dims=%d seed=%d: filtered RSL mismatch got=%v want=%v", dims, seed, gotF, want)
			}
		}
	}
}

func TestBichromaticReverseSkyline(t *testing.T) {
	// Distinct product and customer sets: no exclusion interplay.
	products := randItems(300, 2, 7)
	customers := randItems(100, 2, 8)
	for i := range customers {
		customers[i].ID += 10000 // disjoint ID space
	}
	db := NewDB(2, products, rtree.Config{})
	q := geom.NewPoint(50, 50)
	var want []int
	for _, c := range customers {
		if bruteIsRSL(products, c, q) {
			want = append(want, c.ID)
		}
	}
	sort.Ints(want)
	if got := ids(db.ReverseSkylineFiltered(customers, q)); !equalInts(got, want) {
		t.Fatalf("bichromatic filtered RSL got=%v want=%v", got, want)
	}
}

func TestDynamicSkylineExcluding(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	// DSL(c2) over P \ {pt2} is {p1, p4, p6} (paper §I).
	got := ids(db.DynamicSkylineExcluding(c2, 2))
	if !equalInts(got, []int{1, 4, 6}) {
		t.Fatalf("DSL(c2) = %v, want [1 4 6]", got)
	}
	// Without exclusion pt2 itself (at distance zero) dominates everything.
	all := ids(db.DynamicSkylineExcluding(c2, NoExclude))
	if !equalInts(all, []int{2}) {
		t.Fatalf("DSL(c2) without exclusion = %v, want [2]", all)
	}
	if bbs := ids(must(db.DynamicSkylineCtx(bg, c2))); !equalInts(bbs, []int{2}) {
		t.Fatalf("BBS DSL(c2) = %v, want [2]", bbs)
	}
}

func TestRSLMembershipEquivalence(t *testing.T) {
	// Property: IsReverseSkyline(c, q) ⇔ q ∈ DSL(c) over P∪{q} (c excluded).
	products := randItems(200, 2, 9)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		c := products[rng.Intn(len(products))]
		got := db.IsReverseSkyline(c, q)
		// q ∈ DSL(c) iff nothing in P\{c} dynamically dominates q w.r.t. c.
		want := bruteIsRSL(products, c, q)
		if got != want {
			t.Fatalf("membership mismatch: c=%v q=%v got=%v want=%v", c, q, got, want)
		}
	}
}

func TestQueryAtCustomerLocation(t *testing.T) {
	// When q coincides with the customer, nothing can strictly dominate q
	// (every product is at best equal in the transformed space), so c ∈ RSL(q).
	products := randItems(100, 2, 11)
	db := NewDB(2, products, rtree.Config{})
	c := products[3]
	if !db.IsReverseSkyline(c, c.Point) {
		t.Fatal("customer must be in RSL of a product placed exactly at it")
	}
}

func TestDBBasics(t *testing.T) {
	db := fig1DB()
	if db.Len() != 8 || db.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", db.Len(), db.Dims())
	}
	u, ok := db.Universe()
	if !ok || !u.Lo.Equal(geom.NewPoint(2.5, 20)) || !u.Hi.Equal(geom.NewPoint(26, 90)) {
		t.Fatalf("Universe = %v ok=%v", u, ok)
	}
	db.Insert(Item{ID: 99, Point: geom.NewPoint(1, 1)})
	if db.Len() != 9 {
		t.Fatal("Insert failed")
	}
	if !db.Delete(Item{ID: 99, Point: geom.NewPoint(1, 1)}) || db.Len() != 8 {
		t.Fatal("Delete failed")
	}
}

// Lemma 1: deleting Λ from P puts c_t into RSL(q).
func TestLemma1DeletionIncludesWhyNot(t *testing.T) {
	products := randItems(400, 2, 13)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(14))
	checked := 0
	for trial := 0; trial < 40 && checked < 10; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		c := products[rng.Intn(len(products))]
		lambda := must(db.WindowQueryCtx(bg, c.Point, q, c.ID))
		if len(lambda) == 0 {
			continue // already in RSL
		}
		checked++
		for _, p := range lambda {
			if !db.Delete(p) {
				t.Fatalf("failed to delete %v", p)
			}
		}
		if !db.IsReverseSkyline(c, q) {
			t.Fatalf("Lemma 1 violated: c=%v q=%v still outside RSL after deleting Λ", c, q)
		}
		for _, p := range lambda {
			db.Insert(p)
		}
	}
	if checked == 0 {
		t.Fatal("no why-not cases sampled; test vacuous")
	}
}

func TestReverseSkylineBBRSMatchesMono(t *testing.T) {
	products := randItems(800, 2, 21)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		want := ids(db.ReverseSkylineFiltered(products, q))
		got := ids(must(db.ReverseSkylineBBRSCtx(bg, q)))
		if !equalInts(got, want) {
			t.Fatalf("trial %d: BBRS=%v filtered=%v", trial, got, want)
		}
	}
}

func TestReverseSkylinePaperExampleAllVariants(t *testing.T) {
	db := fig1DB()
	want := []int{2, 3, 4, 6, 8}
	if got := ids(db.ReverseSkylineFiltered(fig1(), paperQ)); !equalInts(got, want) {
		t.Fatalf("filtered RSL = %v", got)
	}
	if got := ids(must(db.ReverseSkylineBBRSCtx(bg, paperQ))); !equalInts(got, want) {
		t.Fatalf("BBRS RSL = %v", got)
	}
}

// Concurrent read-only use of the DB must be race-free (candidate
// traversals, access counting, window queries). Run with -race to enforce.
func TestConcurrentReadsRaceFree(t *testing.T) {
	products := randItems(2000, 2, 71)
	db := NewDB(2, products, rtree.Config{})
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				c := products[rng.Intn(len(products))]
				q := products[rng.Intn(len(products))].Point
				must(db.WindowExistsCtx(bg, c.Point, q, c.ID))
				db.DynamicSkylineExcluding(c.Point, c.ID)
				if i%10 == 0 {
					db.ReverseSkylineFiltered(products, q)
				}
			}
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// WindowFrontier equals filtering the materialised window down to its
// dominance minima, for both centre choices.
func TestWindowFrontierMatchesOracle(t *testing.T) {
	products := randItems(600, 2, 81)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(82))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		c := products[rng.Intn(len(products))]
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		lambda := must(db.WindowQueryCtx(bg, c.Point, q, c.ID))
		if len(lambda) == 0 {
			continue
		}
		checked++
		for _, centre := range []geom.Point{q, c.Point} {
			var want []int
			for a, ea := range lambda {
				dominated := false
				for b, eb := range lambda {
					if a != b && geom.DynDominates(centre, eb.Point, ea.Point) {
						dominated = true
						break
					}
				}
				if !dominated {
					want = append(want, ea.ID)
				}
			}
			sort.Ints(want)
			got := ids(must(db.WindowFrontierCtx(bg, c.Point, q, centre, c.ID)))
			if !equalInts(got, want) {
				t.Fatalf("trial %d centre=%v: frontier %v, want %v", trial, centre, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

// cancelAtFirst cancels its query at the first checkpoint and records the
// site of every checkpoint hit.
type cancelAtFirst struct {
	cancel context.CancelFunc
	sites  []string
}

func (h *cancelAtFirst) Visit(site string, n uint64) {
	h.sites = append(h.sites, site)
	if n == 1 {
		h.cancel()
	}
}

// The filtered reverse skyline's candidate pass is an index traversal with a
// checkpoint per node, so a cancellation stops it before the customer loop.
func TestFilteredCancelsInCandidatePass(t *testing.T) {
	products := datagen.Generate(datagen.CarDB, 5000, 2, 13)
	db := NewDB(2, products, rtree.Config{})
	u, _ := db.Universe()
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	h := &cancelAtFirst{cancel: cancelFn}
	_, err := db.ReverseSkylineFilteredCtx(cancel.WithHook(cancel.WithStride(ctx, 1), h), products, u.Center())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(h.sites) == 0 || h.sites[0] != cancel.SiteRTreeNode {
		t.Fatalf("checkpoint sites %v: the first must be %s", h.sites, cancel.SiteRTreeNode)
	}
	for _, site := range h.sites {
		if site == cancel.SiteCustomer {
			t.Fatalf("checkpoint sites %v: %s fired after the cancellation", h.sites, cancel.SiteCustomer)
		}
	}
}

func TestWindowFrontierEmpty(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	if got := must(db.WindowFrontierCtx(bg, c2, paperQ, paperQ, 2)); len(got) != 0 {
		t.Fatalf("frontier of an empty window = %v", got)
	}
}

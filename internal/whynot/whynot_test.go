package whynot

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/rskyline"
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

func fig1Engine() *Engine {
	return NewEngine(rskyline.NewDB(2, fig1(), rtree.Config{}), true)
}

// bg is the context of every test call that is not about cancellation.
var bg = context.Background()

// must unwraps the result of a ctx-form call under bg, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func hasPoint(cands []Candidate, p geom.Point) bool {
	for _, c := range cands {
		if c.Point.ApproxEqual(p, 1e-9) {
			return true
		}
	}
	return false
}

// Paper §IV example: MWP for c1 = (5, 30) yields c1* ∈ {(5, 48.5), (8, 30)}.
func TestMWPPaperExample(t *testing.T) {
	e := fig1Engine()
	c1 := Item{ID: 1, Point: geom.NewPoint(5, 30)}
	res := e.MWP(c1, paperQ, Options{})
	if res.AlreadyMember {
		t.Fatal("c1 must be a why-not point")
	}
	if lambda := must(e.ExplainCtx(bg, c1, paperQ)); len(lambda) != 1 || lambda[0].ID != 2 {
		t.Fatalf("Λ = %v, want [p2]", lambda)
	}
	if len(res.Frontier) != 1 || res.Frontier[0].ID != 2 {
		t.Fatalf("F = %v, want [p2]", res.Frontier)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %v, want 2", res.Candidates)
	}
	for _, want := range []geom.Point{geom.NewPoint(5, 48.5), geom.NewPoint(8, 30)} {
		if !hasPoint(res.Candidates, want) {
			t.Fatalf("missing paper candidate %v in %v", want, res.Candidates)
		}
	}
	// Both candidates must actually admit c1 after the ε-nudge.
	for _, c := range res.Candidates {
		if !must(e.ValidateWhyNotMoveCtx(bg, c1, paperQ, c.Point, 1e-9)) {
			t.Fatalf("candidate %v does not admit c1", c.Point)
		}
	}
}

// Paper §V.A example: MQP for c1 yields q* ∈ {(8.5, 42), (7.5, 55)}.
func TestMQPPaperExample(t *testing.T) {
	e := fig1Engine()
	c1 := Item{ID: 1, Point: geom.NewPoint(5, 30)}
	res := e.MQP(c1, paperQ, Options{})
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %v, want 2", res.Candidates)
	}
	for _, want := range []geom.Point{geom.NewPoint(8.5, 42), geom.NewPoint(7.5, 55)} {
		if !hasPoint(res.Candidates, want) {
			t.Fatalf("missing paper candidate %v in %v", want, res.Candidates)
		}
	}
	// Paper: "the car dealer has to decrease the price of q at least 1K",
	// i.e. (7.5, 55) costs less than (8.5, 42) under equal weights.
	if !res.Best().Point.ApproxEqual(geom.NewPoint(7.5, 55), 1e-9) {
		t.Fatalf("best MQP candidate = %v, want (7.5, 55)", res.Best().Point)
	}
	for _, c := range res.Candidates {
		if !must(e.ValidateQueryMoveCtx(bg, c1, c.Point, 1e-9)) {
			t.Fatalf("candidate %v does not admit c1", c.Point)
		}
	}
}

// Paper §V.B example: SR(q) over the Fig. 1 data. The paper prints the two
// rectangles {(7.5,50),(10,58)} and {(7.5,50),(12.5,54)}, but its own
// follow-up example contradicts the first: the overlap of SR(q) with
// anti-DDR(c7) is stated as {(7.5,60),(10,70)}, which is disjoint from a
// rectangle capped at mileage 58 and requires the cap to be 70. Direct
// window-query probing (next test) confirms every point of
// {(7.5,50),(10,70)} preserves RSL(q), so "58" is a typo for "70".
func TestSafeRegionPaperExample(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	if len(rsl) != 5 {
		t.Fatalf("|RSL(q)| = %d, want 5", len(rsl))
	}
	sr := e.SafeRegion(paperQ, rsl)
	want := region.Set{
		geom.NewRect(geom.NewPoint(7.5, 50), geom.NewPoint(10, 70)),
		geom.NewRect(geom.NewPoint(7.5, 50), geom.NewPoint(12.5, 54)),
	}
	if !region.Equivalent(sr, want) {
		t.Fatalf("SR(q) = %v (area %v), want %v (area %v)", sr, sr.Area(), want, want.Area())
	}
	if !sr.Contains(paperQ) {
		t.Fatal("q must lie inside its own safe region")
	}
	// The paper's printed (conservative) region is a subset of the exact one.
	paperSR := region.Set{
		geom.NewRect(geom.NewPoint(7.5, 50), geom.NewPoint(10, 58)),
		geom.NewRect(geom.NewPoint(7.5, 50), geom.NewPoint(12.5, 54)),
	}
	inter := paperSR.IntersectSet(sr)
	if math.Abs(inter.Area()-paperSR.Area()) > 1e-9 {
		t.Fatalf("paper's printed SR must be contained in the exact SR")
	}
}

// Safe-region soundness (Definition 7): every interior point of SR(q)
// preserves RSL(q), and points just outside it lose at least one customer.
func TestSafeRegionPreservesRSLPaperData(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	sr := e.SafeRegion(paperQ, rsl)
	// Probe interior grid points of every safe-region rectangle (the closed
	// boundary may weakly lose a customer by construction, so stay inside).
	for _, r := range sr {
		for fx := 0.01; fx < 1.0; fx += 0.246 {
			for fy := 0.01; fy < 1.0; fy += 0.246 {
				qs := geom.NewPoint(
					r.Lo[0]+fx*(r.Hi[0]-r.Lo[0]),
					r.Lo[1]+fy*(r.Hi[1]-r.Lo[1]),
				)
				for _, c := range rsl {
					if must(e.DB.WindowExistsCtx(bg, c.Point, qs, c.ID)) {
						t.Fatalf("moving q to %v loses customer %d", qs, c.ID)
					}
				}
			}
		}
	}
	// Exactness: probe a surrounding grid; any safe point (off the region's
	// boundary) must be inside the computed region.
	for x := 2.05; x < 28; x += 0.493 {
		for y := 18.05; y < 92; y += 0.493 {
			qs := geom.NewPoint(x, y)
			safe := true
			for _, c := range rsl {
				if must(e.DB.WindowExistsCtx(bg, c.Point, qs, c.ID)) {
					safe = false
					break
				}
			}
			if safe && !sr.Contains(qs) {
				t.Fatalf("safe point %v outside computed SR(q)", qs)
			}
			if !safe && sr.Contains(qs) {
				t.Fatalf("unsafe point %v inside computed SR(q)", qs)
			}
		}
	}
}

// Paper §V.B example: MWQ for why-not c7 is case C1 with the overlap region
// {(7.5,60),(10,70)} and q* = (8.5, 60).
func TestMWQPaperExampleC7(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	c7 := Item{ID: 7, Point: geom.NewPoint(26, 70)}
	res := must(e.MWQExactCtx(bg, c7, paperQ, rsl, Options{}))
	if res.Case != CaseOverlap {
		t.Fatalf("case = %v, want C1 (overlap)", res.Case)
	}
	wantOverlap := region.Set{geom.NewRect(geom.NewPoint(7.5, 60), geom.NewPoint(10, 70))}
	if !region.Equivalent(res.Overlap, wantOverlap) {
		t.Fatalf("overlap = %v, want %v", res.Overlap, wantOverlap)
	}
	if !res.QStar.ApproxEqual(geom.NewPoint(8.5, 60), 1e-9) {
		t.Fatalf("q* = %v, want (8.5, 60)", res.QStar)
	}
	if res.Cost != 0 {
		t.Fatalf("C1 cost = %v, want 0", res.Cost)
	}
	// q* is the infimum on the closed overlap boundary; verify after an
	// ε-move into the overlap interior: it admits c7 and keeps all of RSL(q).
	qn := res.Overlap.InteriorNudge(res.QStar, 1e-9)
	if must(e.DB.WindowExistsCtx(bg, c7.Point, qn, 7)) {
		t.Fatal("q* does not admit c7")
	}
	for _, c := range rsl {
		if must(e.DB.WindowExistsCtx(bg, c.Point, qn, c.ID)) {
			t.Fatalf("q* loses existing customer %d", c.ID)
		}
	}
}

// Paper §V.B example: MWQ for why-not c1 is case C2 with best q* = (7.5, 50).
// The paper prints the induced why-not move as "c1*(50K, 46)", a garbled
// rendering of the candidate (5K, 46K), which our Algorithm 1 run against
// q* = (7.5, 50) produces alongside (7.5K, 30K).
func TestMWQPaperExampleC1(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	c1 := Item{ID: 1, Point: geom.NewPoint(5, 30)}
	res := must(e.MWQExactCtx(bg, c1, paperQ, rsl, Options{}))
	if res.Case != CaseDisjoint {
		t.Fatalf("case = %v, want C2 (disjoint)", res.Case)
	}
	// The paper's chosen corner (7.5, 50) must be among the evaluated q*
	// candidates; against it, Algorithm 1 yields the paper's why-not move
	// (5, 46) ("c1*(50K, 46)" in the paper is a garbled (5K, 46K)).
	if !hasPoint(res.QCandidates, geom.NewPoint(7.5, 50)) {
		t.Fatalf("paper corner (7.5, 50) missing from q* candidates %v", res.QCandidates)
	}
	paperMove := e.MWP(c1, geom.NewPoint(7.5, 50), Options{})
	if !hasPoint(paperMove.Candidates, geom.NewPoint(5, 46)) {
		t.Fatalf("missing paper candidate (5, 46) in %v", paperMove.Candidates)
	}
	// The literal Algorithm 1 run against that corner would also emit
	// (7.5, 30), but the corner and the culprit p2 share price 7.5, making
	// that dimension degenerate: no ε-move can ever admit c1 there, so the
	// validity filter drops it.
	if hasPoint(paperMove.Candidates, geom.NewPoint(7.5, 30)) {
		t.Fatalf("unrescuable candidate (7.5, 30) must be filtered: %v", paperMove.Candidates)
	}
	// Our MWQ additionally evaluates staying at q, which here beats the
	// paper's corner: the induced move (8, 30) costs less than (5, 46).
	if res.Cost > paperMove.Best().Cost+1e-12 {
		t.Fatalf("MWQ cost %v worse than the paper's corner option %v", res.Cost, paperMove.Best().Cost)
	}
	// The chosen q* stays in the safe region (zero query cost) and the
	// why-not move must be valid against it.
	if !res.SafeRegion.Contains(res.QStar) {
		t.Fatal("q* must stay inside the safe region")
	}
	if !must(e.ValidateWhyNotMoveCtx(bg, c1, res.QStar, res.CtStar, 1e-9)) {
		t.Fatalf("c1* = %v does not admit c1 against q* = %v", res.CtStar, res.QStar)
	}
	qn := res.SafeRegion.InteriorNudge(res.QStar, 1e-9)
	for _, c := range rsl {
		if must(e.DB.WindowExistsCtx(bg, c.Point, qn, c.ID)) {
			t.Fatalf("q* loses existing customer %d", c.ID)
		}
	}
	// MWQ never costs more than MWP (the paper's headline comparison).
	mwp := e.MWP(c1, paperQ, Options{})
	if res.Cost > mwp.Best().Cost+1e-12 {
		t.Fatalf("MWQ cost %v exceeds MWP cost %v", res.Cost, mwp.Best().Cost)
	}
}

func TestAlreadyMemberShortCircuits(t *testing.T) {
	e := fig1Engine()
	c2 := Item{ID: 2, Point: geom.NewPoint(7.5, 42)}
	if got := must(e.ExplainCtx(bg, c2, paperQ)); len(got) != 0 {
		t.Fatalf("Explain for a member = %v, want empty", got)
	}
	mwp := e.MWP(c2, paperQ, Options{})
	if !mwp.AlreadyMember || mwp.Best().Cost != 0 || !mwp.Best().Point.Equal(c2.Point) {
		t.Fatalf("MWP for member = %+v", mwp)
	}
	mqp := e.MQP(c2, paperQ, Options{})
	if !mqp.AlreadyMember || mqp.Best().Cost != 0 {
		t.Fatalf("MQP for member = %+v", mqp)
	}
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, fig1(), paperQ))
	mwq := must(e.MWQExactCtx(bg, c2, paperQ, rsl, Options{}))
	if !mwq.AlreadyMember || mwq.Cost != 0 {
		t.Fatalf("MWQ for member = %+v", mwq)
	}
}

func randProducts(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
	}
	return items
}

// Property: every MWP candidate admits the why-not point, on random data and
// arbitrary q / c_t orientations.
func TestMWPValidityRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		products := randProducts(300, seed)
		e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
		rng := rand.New(rand.NewSource(seed + 50))
		tested := 0
		for trial := 0; trial < 60 && tested < 15; trial++ {
			q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			ct := products[rng.Intn(len(products))]
			res := e.MWP(ct, q, Options{})
			if res.AlreadyMember {
				continue
			}
			tested++
			for _, cand := range res.Candidates {
				if !must(e.ValidateWhyNotMoveCtx(bg, ct, q, cand.Point, 1e-7)) {
					t.Fatalf("seed %d: invalid MWP candidate %v for ct=%v q=%v",
						seed, cand.Point, ct.Point, q)
				}
			}
			// The cheapest candidate never costs more than moving c_t all
			// the way onto q (a trivially valid move).
			trivial := e.costC(ct.Point, q, Options{})
			if res.Best().Cost > trivial+1e-12 {
				t.Fatalf("seed %d: MWP best cost %v exceeds trivial move %v",
					seed, res.Best().Cost, trivial)
			}
		}
		if tested == 0 {
			t.Fatalf("seed %d: no why-not cases sampled", seed)
		}
	}
}

// Property: every MQP candidate admits the why-not point.
func TestMQPValidityRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		products := randProducts(300, seed+100)
		e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
		rng := rand.New(rand.NewSource(seed + 150))
		tested := 0
		for trial := 0; trial < 60 && tested < 15; trial++ {
			q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			ct := products[rng.Intn(len(products))]
			res := e.MQP(ct, q, Options{})
			if res.AlreadyMember {
				continue
			}
			tested++
			for _, cand := range res.Candidates {
				if !must(e.ValidateQueryMoveCtx(bg, ct, cand.Point, 1e-7)) {
					t.Fatalf("seed %d: invalid MQP candidate %v for ct=%v q=%v",
						seed, cand.Point, ct.Point, q)
				}
			}
		}
		if tested == 0 {
			t.Fatalf("seed %d: no why-not cases sampled", seed)
		}
	}
}

// Property: the safe region preserves RSL on random data, and MWQ's q* both
// admits the why-not point (after moving c_t in case C2) and keeps RSL.
func TestMWQSoundnessRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		products := randProducts(200, seed+200)
		e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
		rng := rand.New(rand.NewSource(seed + 250))
		tested := 0
		for trial := 0; trial < 40 && tested < 6; trial++ {
			q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
			if len(rsl) == 0 || len(rsl) > 12 {
				continue
			}
			ct := products[rng.Intn(len(products))]
			if !must(e.DB.WindowExistsCtx(bg, ct.Point, q, ct.ID)) {
				continue // already a member
			}
			tested++
			res := must(e.MWQExactCtx(bg, ct, q, rsl, Options{}))
			// q* is an infimum on the closed safe-region boundary; after an
			// ε-move into the region interior it must preserve every
			// existing reverse-skyline customer.
			qn := res.SafeRegion.InteriorNudge(res.QStar, 1e-9)
			if res.Case == CaseOverlap {
				qn = res.Overlap.InteriorNudge(res.QStar, 1e-9)
			}
			for _, c := range rsl {
				if must(e.DB.WindowExistsCtx(bg, c.Point, qn, c.ID)) {
					t.Fatalf("seed %d: MWQ q*=%v loses customer %d (case %v)",
						seed, res.QStar, c.ID, res.Case)
				}
			}
			switch res.Case {
			case CaseOverlap:
				if res.Cost != 0 {
					t.Fatalf("seed %d: C1 with non-zero cost %v", seed, res.Cost)
				}
				if must(e.DB.WindowExistsCtx(bg, ct.Point, qn, ct.ID)) {
					t.Fatalf("seed %d: C1 q*=%v does not admit ct=%v", seed, res.QStar, ct.Point)
				}
			case CaseDisjoint:
				if !must(e.ValidateWhyNotMoveCtx(bg, ct, res.QStar, res.CtStar, 1e-7)) {
					t.Fatalf("seed %d: C2 ct*=%v invalid against q*=%v", seed, res.CtStar, res.QStar)
				}
				// MWQ ≤ MWP.
				mwp := e.MWP(ct, q, Options{})
				if res.Cost > mwp.Best().Cost+1e-9 {
					t.Fatalf("seed %d: MWQ cost %v > MWP cost %v", seed, res.Cost, mwp.Best().Cost)
				}
			}
		}
		if tested == 0 {
			t.Fatalf("seed %d: no MWQ cases sampled", seed)
		}
	}
}

// The approximate safe region is always a subset of the exact one (by
// measure), so Approx-MWQ can never lose an existing customer.
func TestApproxSafeRegionSubset(t *testing.T) {
	products := randProducts(400, 999)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products, 5, 0)
	rng := rand.New(rand.NewSource(1000))
	tested := 0
	for trial := 0; trial < 40 && tested < 8; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
		if len(rsl) == 0 || len(rsl) > 10 {
			continue
		}
		tested++
		exact := e.SafeRegion(q, rsl)
		approx := e.ApproxSafeRegion(q, rsl, store)
		inter := approx.IntersectSet(exact)
		if math.Abs(inter.Area()-approx.Area()) > 1e-6*(1+approx.Area()) {
			t.Fatalf("approx SR (area %v) not a subset of exact SR (overlap %v)",
				approx.Area(), inter.Area())
		}
		if !approx.Contains(q) {
			t.Fatal("q must stay inside the approximate safe region")
		}
	}
	if tested == 0 {
		t.Fatal("no safe regions sampled")
	}
}

// Approx-MWQ quality bound from §VI.B.2: never worse than MWP.
func TestApproxMWQNeverWorseThanMWP(t *testing.T) {
	products := randProducts(300, 555)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	store := e.BuildApproxStore(products, 5, 0)
	rng := rand.New(rand.NewSource(556))
	tested := 0
	for trial := 0; trial < 60 && tested < 8; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
		if len(rsl) == 0 || len(rsl) > 10 {
			continue
		}
		ct := products[rng.Intn(len(products))]
		if !must(e.DB.WindowExistsCtx(bg, ct.Point, q, ct.ID)) {
			continue
		}
		tested++
		approx := e.MWQApprox(ct, q, rsl, store, Options{})
		mwp := e.MWP(ct, q, Options{})
		if approx.Cost > mwp.Best().Cost+1e-9 {
			t.Fatalf("Approx-MWQ cost %v worse than MWP %v", approx.Cost, mwp.Best().Cost)
		}
	}
	if tested == 0 {
		t.Fatal("no cases sampled")
	}
}

func TestMQPTotalCost(t *testing.T) {
	e := fig1Engine()
	customers := fig1()
	rsl := must(e.DB.ReverseSkylineFilteredCtx(bg, customers, paperQ))
	sr := e.SafeRegion(paperQ, rsl)
	// Moving q inside its safe region costs nothing.
	inside := geom.NewPoint(8.5, 55)
	if got := e.MQPTotalCost(paperQ, inside, rsl, sr, Options{}); got != 0 {
		t.Fatalf("cost of staying = %v, want 0", got)
	}
	// A drastic move away loses customers and costs more than the plain
	// α-distance from the safe region.
	far := geom.NewPoint(26, 20)
	cost := e.MQPTotalCost(paperQ, far, rsl, sr, Options{})
	pNear, _, _ := sr.NearestPoint(far, nil)
	base := e.costQ(pNear, far, Options{})
	if cost < base {
		t.Fatalf("total cost %v below α-term %v", cost, base)
	}
	// Nil safe region charges from q itself.
	costNil := e.MQPTotalCost(paperQ, far, rsl, nil, Options{})
	if costNil < e.costQ(paperQ, far, Options{}) {
		t.Fatalf("nil-SR cost %v below |q−q*|", costNil)
	}
}

func TestMWPHigherDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	items := make([]Item, 200)
	for i := range items {
		items[i] = Item{ID: i, Point: geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)}
	}
	e := NewEngine(rskyline.NewDB(3, items, rtree.Config{}), true)
	tested := 0
	for trial := 0; trial < 60 && tested < 10; trial++ {
		q := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		ct := items[rng.Intn(len(items))]
		res := e.MWP(ct, q, Options{})
		if res.AlreadyMember {
			continue
		}
		tested++
		for _, cand := range res.Candidates {
			if !must(e.ValidateWhyNotMoveCtx(bg, ct, q, cand.Point, 1e-7)) {
				t.Fatalf("3-d MWP candidate %v invalid (ct=%v q=%v)", cand.Point, ct.Point, q)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no 3-d why-not cases sampled")
	}
}

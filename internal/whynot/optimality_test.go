package whynot

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// Differential oracle: exhaustive grid search over candidate positions. The
// algorithms' best answers must not be beaten (beyond grid resolution) by
// any grid point that validates with real window queries — i.e., the paper's
// "minimum change" claim holds for the candidate enumeration.

func TestMWPOptimalityAgainstGridSearch(t *testing.T) {
	products := randProducts(150, 5150)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(5151))
	tested := 0
	for trial := 0; trial < 80 && tested < 6; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		ct := products[rng.Intn(len(products))]
		res := e.MWP(ct, q, Options{})
		if res.AlreadyMember {
			continue
		}
		tested++
		best := res.Best().Cost

		// Grid-search the box spanned by c_t and q (plus slack) for the
		// cheapest strictly valid position.
		gridBest := math.Inf(1)
		lo := ct.Point.Min(q)
		hi := ct.Point.Max(q)
		const steps = 60
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				p := geom.NewPoint(
					lo[0]+(hi[0]-lo[0])*float64(i)/steps,
					lo[1]+(hi[1]-lo[1])*float64(j)/steps,
				)
				if must(e.DB.WindowExistsCtx(bg, p, q, ct.ID)) {
					continue // not strictly valid
				}
				if c := e.costC(ct.Point, p, Options{}); c < gridBest {
					gridBest = c
				}
			}
		}
		// Grid positions are strictly valid, so gridBest ≥ the infimum; the
		// algorithm's boundary answer must be at most gridBest (+ float fuzz).
		if best > gridBest+1e-9 {
			t.Fatalf("MWP best %v beaten by grid point with cost %v (ct=%v q=%v)",
				best, gridBest, ct.Point, q)
		}
	}
	if tested == 0 {
		t.Fatal("no why-not cases sampled")
	}
}

func TestMQPOptimalityAgainstGridSearch(t *testing.T) {
	products := randProducts(150, 5160)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(5161))
	tested := 0
	for trial := 0; trial < 80 && tested < 6; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		ct := products[rng.Intn(len(products))]
		res := e.MQP(ct, q, Options{})
		if res.AlreadyMember {
			continue
		}
		tested++
		best := res.Best().Cost

		gridBest := math.Inf(1)
		lo := ct.Point.Min(q)
		hi := ct.Point.Max(q)
		const steps = 60
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				p := geom.NewPoint(
					lo[0]+(hi[0]-lo[0])*float64(i)/steps,
					lo[1]+(hi[1]-lo[1])*float64(j)/steps,
				)
				if must(e.DB.WindowExistsCtx(bg, ct.Point, p, ct.ID)) {
					continue // p does not admit c_t as query point
				}
				if c := e.costQ(q, p, Options{}); c < gridBest {
					gridBest = c
				}
			}
		}
		if best > gridBest+1e-9 {
			t.Fatalf("MQP best %v beaten by grid point with cost %v (ct=%v q=%v)",
				best, gridBest, ct.Point, q)
		}
	}
	if tested == 0 {
		t.Fatal("no why-not cases sampled")
	}
}

// Weighted variant: optimality must hold under non-uniform dimension weights
// as well (the β vector of Eqn. (9)).
func TestMWPOptimalityWeighted(t *testing.T) {
	products := randProducts(120, 5170)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(5171))
	opt := Options{WeightsC: []float64{0.8, 0.2}}
	tested := 0
	for trial := 0; trial < 80 && tested < 5; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		ct := products[rng.Intn(len(products))]
		res := e.MWP(ct, q, opt)
		if res.AlreadyMember {
			continue
		}
		tested++
		best := res.Best().Cost
		gridBest := math.Inf(1)
		lo := ct.Point.Min(q)
		hi := ct.Point.Max(q)
		const steps = 50
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				p := geom.NewPoint(
					lo[0]+(hi[0]-lo[0])*float64(i)/steps,
					lo[1]+(hi[1]-lo[1])*float64(j)/steps,
				)
				if must(e.DB.WindowExistsCtx(bg, p, q, ct.ID)) {
					continue
				}
				if c := e.costC(ct.Point, p, opt); c < gridBest {
					gridBest = c
				}
			}
		}
		if best > gridBest+1e-9 {
			t.Fatalf("weighted MWP best %v beaten by grid %v", best, gridBest)
		}
	}
	if tested == 0 {
		t.Fatal("no cases sampled")
	}
}

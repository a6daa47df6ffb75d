package whynot

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func TestMWQBatchMatchesSingles(t *testing.T) {
	products := randProducts(300, 3030)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(3031))
	var q geom.Point
	var rsl []Item
	for trial := 0; trial < 40; trial++ {
		q = geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl = must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
		if len(rsl) >= 1 && len(rsl) <= 8 {
			break
		}
		rsl = nil
	}
	if rsl == nil {
		t.Skip("no suitable query sampled")
	}
	var cts []Item
	for _, c := range products {
		if must(e.DB.WindowExistsCtx(bg, c.Point, q, c.ID)) {
			cts = append(cts, c)
		}
		if len(cts) == 12 {
			break
		}
	}
	sr := e.SafeRegion(q, rsl)
	batch := must(e.MWQBatchCtx(bg, cts, q, rsl, Options{}))
	if len(batch) != len(cts) {
		t.Fatalf("batch size %d for %d customers", len(batch), len(cts))
	}
	singles := make([]MWQResult, len(cts))
	for i, ct := range cts {
		singles[i] = e.MWQ(ct, q, sr, Options{})
		if batch[i].Cost != singles[i].Cost || batch[i].Case != singles[i].Case {
			t.Fatalf("batch[%d] diverges from single: %v/%v vs %v/%v",
				i, batch[i].Cost, batch[i].Case, singles[i].Cost, singles[i].Case)
		}
	}
	for _, w := range workerCounts() {
		pe := engineAt(products, w)
		parallel := must(pe.MWQBatchCtx(bg, cts, q, rsl, Options{}))
		if len(parallel) != len(cts) {
			t.Fatalf("workers=%d: batch size %d for %d customers", w, len(parallel), len(cts))
		}
		for i, single := range singles {
			if parallel[i].Cost != single.Cost || parallel[i].Case != single.Case {
				t.Fatalf("workers=%d: parallel[%d] diverges from single", w, i)
			}
			if !parallel[i].QStar.Equal(single.QStar) || !parallel[i].CtStar.Equal(single.CtStar) {
				t.Fatalf("workers=%d: parallel[%d] chose different points", w, i)
			}
		}
		// Empty batch is fine.
		if got := must(pe.MWQBatchCtx(bg, nil, q, rsl, Options{})); len(got) != 0 {
			t.Fatalf("workers=%d: empty batch should yield empty results", w)
		}
	}
}

// workerCounts are the DB worker counts every fanned-out loop must answer
// identically at; 1 is the sequential reference.
func workerCounts() []int { return []int{1, 2, 4, runtime.GOMAXPROCS(0)} }

// engineAt indexes products in a fresh monochromatic engine whose DB runs
// its per-customer loops on the given number of workers.
func engineAt(products []Item, workers int) *Engine {
	db := rskyline.NewDB(2, products, rtree.Config{})
	db.SetWorkers(workers)
	return NewEngine(db, true)
}

package whynot

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// TestConcurrentSafeRegionDuringMutation races cached safe-region
// construction (anti-DDR cache plus DSL cache, through the context-free and
// the ctx-aware entry points) against Insert/Delete churn on the underlying
// index, on DBs built at every worker count. Run under -race this witnesses
// the lock discipline; the generation quiescence check witnesses that no
// stale cached region is ever served.
func TestConcurrentSafeRegionDuringMutation(t *testing.T) {
	for _, w := range workerCounts() {
		raceSafeRegionAgainstMutation(t, w)
	}
}

func raceSafeRegionAgainstMutation(t *testing.T, workers int) {
	rng := rand.New(rand.NewSource(11))
	products := randProducts(150, 500)
	db := rskyline.NewDB(2, products, rtree.Config{})
	db.SetWorkers(workers)
	db.EnableDSLCache(64)
	e := NewEngine(db, true)
	e.EnableAntiDDRCache(64)

	// A query with a small reverse skyline, found deterministically.
	var q geom.Point
	var rsl []Item
	for trial := 0; trial < 50; trial++ {
		cand := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if r := must(db.ReverseSkylineFilteredCtx(bg, products, cand)); len(r) >= 2 && len(r) <= 8 {
			q, rsl = cand, r
			break
		}
	}
	if rsl == nil {
		t.Fatalf("workers=%d: no suitable query sampled", workers)
	}

	var mutator sync.WaitGroup
	stop := make(chan struct{})
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			it := Item{ID: 9700, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
			if round%2 == 0 {
				db.Insert(it)
			} else {
				db.Delete(it)
				e.InvalidateCaches()
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				g1 := db.Generation()
				var got region.Set
				var err error
				if i%2 == 0 {
					got = e.SafeRegion(q, rsl)
				} else {
					got, err = e.SafeRegionCtx(context.Background(), q, rsl)
					if err != nil {
						t.Errorf("workers=%d reader %d: %v", workers, r, err)
						return
					}
				}
				// Quiescence witness: with no overlapping mutation, the cached
				// answer must match an engine without the anti-DDR cache (the
				// shared DSL cache is generation-validated and witnessed
				// separately in the rskyline concurrency suite).
				fresh := NewEngine(db, true).SafeRegion(q, rsl)
				if db.Generation() != g1 {
					continue
				}
				if !region.Equivalent(got, fresh) {
					t.Errorf("workers=%d reader %d: cached safe region differs from fresh at generation %d", workers, r, g1)
					return
				}
			}
		}(r)
	}

	readers.Wait()
	close(stop)
	mutator.Wait()

	// Post-quiescence: the caches warmed under churn must now agree with a
	// cache-free engine, and the caches must have actually been exercised.
	got := e.SafeRegion(q, rsl)
	fresh := NewEngine(db, true).SafeRegion(q, rsl)
	if !region.Equivalent(got, fresh) {
		t.Fatalf("workers=%d: post-quiescence: cached safe region differs from fresh construction", workers)
	}
	st := e.AntiDDRCacheStats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("workers=%d: anti-DDR cache was never exercised", workers)
	}
}

// TestDerivedDeadlineGetsItsOwnChecker: a context derived with a tighter
// deadline from one that already carries a bound checker must not reuse that
// checker — it polls the parent's Done channel and would never see the
// child's deadline. Both the why-not layer and the reverse-skyline layer
// must stop on the child's deadline while the parent stays live.
func TestDerivedDeadlineGetsItsOwnChecker(t *testing.T) {
	products := randProducts(400, 5050)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}), true)
	rng := rand.New(rand.NewSource(5051))
	var q geom.Point
	var rsl []Item
	for trial := 0; trial < 200 && len(rsl) < 3; trial++ {
		q = geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl = must(e.DB.ReverseSkylineFilteredCtx(bg, products, q))
	}
	if len(rsl) < 3 {
		t.Skip("no query with a reverse skyline of at least 3 sampled")
	}
	var ct Item
	for _, c := range products {
		if must(e.DB.WindowExistsCtx(bg, c.Point, q, c.ID)) {
			ct = c
			break
		}
	}

	// Every safe-region member sleeps past the child's budget, and the hook
	// makes every checkpoint poll, so the right checker stops at once.
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 5 * time.Millisecond})
	base, cancelBase := context.WithCancel(cancel.WithHook(context.Background(), inj))
	defer cancelBase()
	parent, parentChk := cancel.Bind(base)
	child, cancelChild := context.WithTimeout(parent, time.Millisecond)
	defer cancelChild()

	if _, err := e.MWQExactCtx(child, ct, q, rsl, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MWQExactCtx under the derived deadline: err = %v, want DeadlineExceeded", err)
	}
	if _, err := e.DB.ReverseSkylineFilteredCtx(child, products, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReverseSkylineFilteredCtx under the derived deadline: err = %v, want DeadlineExceeded", err)
	}
	if parentChk.Err() != nil || parentChk.Visits() != 0 {
		t.Fatalf("the parent's checker was used under the child: err=%v visits=%d", parentChk.Err(), parentChk.Visits())
	}
}

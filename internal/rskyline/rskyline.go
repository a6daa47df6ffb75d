// Package rskyline computes reverse skylines (Definition 3): given a product
// set P indexed by an R*-tree, a customer set C and a query product q, the
// reverse skyline RSL(q) is the set of customers whose dynamic skyline over
// P ∪ {q} contains q.
//
// Membership is verified by the window-query test of §II of the paper: c is
// in RSL(q) iff the window query centred at c with half-extent |c − q| finds
// no product that dynamically dominates q with respect to c. A
// Dellis–Seeger-style candidate filter prunes most customers before any
// window query runs: a branch-and-bound traversal of the R*-tree finds the
// global skyline of P (package skyline), and a customer any of its members
// globally dominates is dropped.
//
// Every query is a ctx-first method (XCtx) that takes its cancellation
// checker from the context once per call (cancel.Bind) and hands it to the
// index traversals, together with one obs.Counts the traversal counts into;
// the method flushes that value to the context's tally once (obs.Flush).
package rskyline

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// Item aliases the R-tree item type.
type Item = rtree.Item

// NoExclude is the sentinel for WindowQueryCtx's excludeID meaning "exclude
// nothing". Dataset IDs are non-negative.
const NoExclude = -1

// DB holds an R*-tree over the product set plus the dimensionality, and is
// the substrate every reverse-skyline and why-not computation runs against.
//
// All query methods are safe for concurrent use with each other and with
// Insert/Delete: index traversals run under a read lock, mutations under a
// write lock, and the one memoised structure, the DSL cache, is purged on
// mutation and validated against the mutation generation. Only the raw
// Tree() accessor is exempt — callers holding it must serialise against
// mutations themselves.
type DB struct {
	// treeMu serialises index mutations against traversals. Only the leaf
	// methods that touch tree directly take it, and they never nest, so the
	// read lock is never acquired re-entrantly.
	treeMu sync.RWMutex
	tree   *rtree.Tree
	dims   int
	// gen counts mutations. Caches of per-customer derived structures (the
	// DSL cache here, the anti-DDR cache in internal/whynot) stamp entries
	// with the generation observed before computing and treat entries from
	// another generation as misses, which closes the compute-mutate-store
	// invalidation race without holding any lock across a computation.
	gen atomic.Uint64
	// dsl memoises dynamic skylines per customer ID (nil = caching off).
	dsl *exec.Cache[int, dslEntry]
	// workers sizes every per-customer fan-out on this DB (reverse-skyline
	// verification here, the safe-region, batch and store loops of
	// internal/whynot); 1, the NewDB default, runs them inline.
	workers int
}

// dslEntry is one cached dynamic skyline. Point and exclude are stored so a
// hit is honoured only for the same preference point and monochromatic
// convention; gen ties the entry to the index state it was computed against.
type dslEntry struct {
	point   geom.Point
	exclude int
	gen     uint64
	items   []Item
}

// NewDB bulk-loads the products into an R*-tree. The paper's page-size-1536
// configuration is used when cfg is the zero value.
func NewDB(dims int, products []Item, cfg rtree.Config) *DB {
	return &DB{tree: rtree.BulkLoad(dims, products, cfg), dims: dims, workers: 1}
}

// SetWorkers fixes the worker count of every per-customer fan-out on this DB
// (n < 1 means 1). Call during setup, before the DB is shared between
// goroutines, as with EnableDSLCache.
func (db *DB) SetWorkers(n int) {
	db.workers = max(n, 1)
}

// Workers returns the worker count set by SetWorkers (1 by default).
func (db *DB) Workers() int { return db.workers }

// EnableDSLCache turns on memoisation of per-customer dynamic skylines,
// bounded to capacity entries (<= 0 disables). Call during setup, before the
// DB is shared between goroutines.
func (db *DB) EnableDSLCache(capacity int) {
	db.dsl = exec.NewCache[int, dslEntry](capacity)
}

// DSLCacheStats returns the cumulative accounting of the DSL cache
// (hits, misses, stale-on-arrival hits, evictions, occupancy).
func (db *DB) DSLCacheStats() exec.CacheStats {
	return db.dsl.Stats()
}

// Generation returns the mutation counter: it increases on every Insert or
// Delete, and any derived structure computed at an older generation is stale.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// Invalidate bumps the mutation generation and drops every memoised structure
// exactly as a mutation would, without touching the index. Hot-swap paths use
// it to retire a DB being replaced: any generation-stamped cache entry still
// aliased elsewhere (a reader that grabbed the old snapshot mid-swap) is
// rejected as stale-on-arrival from this point on, and the purge releases the
// memoised memory immediately.
func (db *DB) Invalidate() { db.mutated() }

// Tree exposes the underlying product index. The returned tree is not
// synchronised: do not mutate the DB while traversing it directly.
func (db *DB) Tree() *rtree.Tree { return db.tree }

// Dims returns the dimensionality of the product space.
func (db *DB) Dims() int { return db.dims }

// Len returns the number of products.
func (db *DB) Len() int {
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return db.tree.Len()
}

// Universe returns the MBR of the product set; ok is false when empty. The
// anti-dominance region construction clips against this rectangle.
func (db *DB) Universe() (geom.Rect, bool) {
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return db.tree.Bounds()
}

// Insert adds a product and invalidates every derived cache.
func (db *DB) Insert(it Item) {
	db.treeMu.Lock()
	db.tree.Insert(it)
	db.treeMu.Unlock()
	db.mutated()
}

// Delete removes a product, reporting whether it was present.
func (db *DB) Delete(it Item) bool {
	db.treeMu.Lock()
	ok := db.tree.Delete(it)
	db.treeMu.Unlock()
	if ok {
		db.mutated()
	}
	return ok
}

// mutated bumps the generation and drops memoised state. The generation is
// bumped first so that a concurrent reader that already computed against the
// old tree stores an entry that can never be served again.
func (db *DB) mutated() {
	db.gen.Add(1)
	db.dsl.Purge()
}

// WindowQueryCtx returns Λ = window_query(c, q): every product inside the
// closed box centred at c with per-dimension half-extent |c_i − q_i| that
// dynamically dominates q with respect to c. Products with ID == excludeID
// are skipped (pass NoExclude to keep all), which implements the
// monochromatic convention that a customer's own product record cannot
// block it. The traversal polls ctx's checker at every node visit.
func (db *DB) WindowQueryCtx(ctx context.Context, c, q geom.Point, excludeID int) ([]Item, error) {
	_, chk := cancel.Bind(ctx)
	cnt := obs.Counts{CostSnapshot: obs.CostSnapshot{WindowQueries: 1}}
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	var out []Item
	dt := 0
	err := db.tree.SearchChecked(chk, &cnt, geom.WindowRect(c, q), func(it Item) bool {
		if it.ID != excludeID {
			dt++
			if geom.DynDominates(c, it.Point, q) {
				out = append(out, it)
			}
		}
		return true
	})
	cnt.DominanceTests += uint64(dt)
	obs.Flush(ctx, &cnt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WindowExistsCtx reports whether window_query(c, q) is non-empty, stopping
// at the first dominating product.
func (db *DB) WindowExistsCtx(ctx context.Context, c, q geom.Point, excludeID int) (bool, error) {
	_, chk := cancel.Bind(ctx)
	cnt := obs.Counts{CostSnapshot: obs.CostSnapshot{WindowQueries: 1}}
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	dt := 0
	found, err := db.tree.ExistsChecked(chk, &cnt, geom.WindowRect(c, q), func(it Item) bool {
		if it.ID == excludeID {
			return false
		}
		dt++
		return geom.DynDominates(c, it.Point, q)
	})
	cnt.DominanceTests += uint64(dt)
	obs.Flush(ctx, &cnt)
	return found, err
}

// WindowFrontierCtx returns the members of window_query(c, q) minimal under
// dynamic dominance with respect to centre, without materialising Λ: a
// branch-and-bound traversal ordered by transformed distance to centre prunes
// every subtree already dominated by a found frontier member. centre is q for
// Algorithm 1's frontier and c for Algorithm 2's. The result equals
// filtering WindowQueryCtx(ctx, c, q, excludeID) down to its dominance
// minima, but touches only a fraction of the window when Λ is large. A
// cancelled traversal returns the context's error and no partial frontier.
func (db *DB) WindowFrontierCtx(ctx context.Context, c, q, centre geom.Point, excludeID int) ([]Item, error) {
	_, chk := cancel.Bind(ctx)
	cnt := obs.Counts{CostSnapshot: obs.CostSnapshot{WindowQueries: 1}}
	defer obs.Flush(ctx, &cnt)
	dt := 0 // point-point tests only; the prune's box tests are not counted
	pr := 0 // frontier candidates eliminated by transformed dominance
	window := geom.WindowRect(c, q)
	type candidate struct {
		it Item
		tr geom.Point
	}
	var cands []candidate
	// Guided DFS: visit near-centre subtrees first so their Λ members prune
	// the rest. Strict global ordering is unnecessary — any collected Λ
	// member prunes soundly, and a final minima pass exactifies the result.
	// One scratch box keeps the transformed-bounds computation
	// allocation-free.
	trR := geom.Rect{Lo: make(geom.Point, len(centre)), Hi: make(geom.Point, len(centre))}
	prune := func(r geom.Rect) bool {
		if len(cands) == 0 {
			return false
		}
		r.TransformMinMaxInto(centre, trR)
		for i := range cands {
			if cands[i].tr.WeaklyDominates(trR.Lo) && !trR.Contains(cands[i].tr) {
				return true
			}
		}
		return false
	}
	db.treeMu.RLock()
	err := db.tree.GuidedSearchChecked(chk, &cnt, window,
		func(r geom.Rect) float64 { return r.MinDistL1(centre) },
		prune,
		func(it Item) bool {
			if it.ID == excludeID || !window.Contains(it.Point) {
				return true // not a member of Λ
			}
			dt++
			if !geom.DynDominates(c, it.Point, q) {
				return true
			}
			tr := it.Point.Transform(centre)
			for i := range cands {
				dt++
				if cands[i].tr.Dominates(tr) {
					pr++
					return true
				}
			}
			cands = append(cands, candidate{it: it, tr: tr})
			return true
		},
	)
	db.treeMu.RUnlock()
	if err != nil {
		cnt.DominanceTests += uint64(dt)
		cnt.PrunedEntries += uint64(pr)
		return nil, err
	}
	// Exactify: out-of-order arrivals can leave dominated members behind.
	var out []Item
	for a := range cands {
		dominated := false
		for b := range cands {
			if a != b {
				dt++
				if cands[b].tr.Dominates(cands[a].tr) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			out = append(out, cands[a].it)
		} else {
			pr++
		}
	}
	cnt.DominanceTests += uint64(dt)
	cnt.PrunedEntries += uint64(pr)
	return out, nil
}

// IsReverseSkyline is IsReverseSkylineCtx without a deadline.
func (db *DB) IsReverseSkyline(c Item, q geom.Point) bool {
	member, _ := db.IsReverseSkylineCtx(context.Background(), c, q)
	return member
}

// IsReverseSkylineCtx reports whether customer c belongs to RSL(q): the
// window query centred at c.Point must find no dominating product other than
// c's own record.
func (db *DB) IsReverseSkylineCtx(ctx context.Context, c Item, q geom.Point) (bool, error) {
	found, err := db.WindowExistsCtx(ctx, c.Point, q, c.ID)
	return !found, err
}

// ReverseSkylineCtx computes RSL(q) over the given customers by running the
// window-existence test for each customer, with a cancellation checkpoint per
// customer. This is the direct §II method.
func (db *DB) ReverseSkylineCtx(ctx context.Context, customers []Item, q geom.Point) ([]Item, error) {
	return db.verify(ctx, customers, q)
}

// ReverseSkylineFiltered is ReverseSkylineFilteredCtx without a deadline.
func (db *DB) ReverseSkylineFiltered(customers []Item, q geom.Point) []Item {
	out, _ := db.ReverseSkylineFilteredCtx(context.Background(), customers, q)
	return out
}

// ReverseSkylineFilteredCtx computes RSL(q) with the global-skyline
// candidate filter: a customer globally dominated (w.r.t. q) by any product
// cannot be in RSL(q), and it suffices to test against the global skyline of
// P, which a branch-and-bound traversal of the index finds. The surviving
// candidates are verified with window-existence queries. The result is
// identical to ReverseSkylineCtx, members in customer order; only the work
// differs. Passing the products as the customers gives the monochromatic
// setting. Cancellation is polled in the candidate traversal and once per
// customer.
func (db *DB) ReverseSkylineFilteredCtx(ctx context.Context, customers []Item, q geom.Point) ([]Item, error) {
	ctx, _ = cancel.Bind(ctx)
	cands, err := db.globalFilter(ctx, customers, q)
	if err != nil {
		return nil, err
	}
	return db.verify(ctx, cands, q)
}

// globalFilter is the sequential filter pass of ReverseSkylineFilteredCtx:
// it keeps, in input order, the customers no global-skyline product other
// than their own record dominates with respect to q. Past the traversal the
// pass is about one dominance test per customer, far cheaper than handing
// each customer to a worker, so only its survivors fan out.
func (db *DB) globalFilter(ctx context.Context, customers []Item, q geom.Point) ([]Item, error) {
	var cnt obs.Counts
	defer obs.Flush(ctx, &cnt)
	gs, err := db.globalSkylineBBS(ctx, &cnt, q)
	if err != nil {
		return nil, err
	}
	_, chk := cancel.Bind(ctx)
	var cands []Item
	for _, c := range customers {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return nil, err
		}
		dominated, tests := gs.Dominates(c)
		cnt.DominanceTests += uint64(tests)
		if dominated {
			cnt.PrunedEntries++ // eliminated by the global-dominance filter
			continue
		}
		cands = append(cands, c)
	}
	return cands, nil
}

// ReverseSkylineBBRSCtx computes RSL(q) in the monochromatic setting with
// the full index-based BBRS pipeline (Dellis & Seeger, VLDB 2007): the global
// skyline candidates come from a branch-and-bound traversal of the R*-tree
// (touching only the index fraction that can contain candidates) and each
// candidate is verified with an existence window query. The members are
// those of ReverseSkylineFilteredCtx over the products, in the traversal's
// discovery order rather than product order. Cancellation is polled in both
// the candidate traversal and the per-candidate verification.
func (db *DB) ReverseSkylineBBRSCtx(ctx context.Context, q geom.Point) ([]Item, error) {
	ctx, _ = cancel.Bind(ctx)
	var cnt obs.Counts
	gs, err := db.globalSkylineBBS(ctx, &cnt, q)
	obs.Flush(ctx, &cnt)
	if err != nil {
		return nil, err
	}
	return db.verify(ctx, gs.Members, q)
}

// verify is the refinement step every reverse-skyline variant ends in: one
// window-existence test per candidate, fanned out over the DB's workers with
// a SiteCustomer checkpoint per candidate. Membership flags land in
// per-index slots, so the members come back in candidate order at every
// worker count.
func (db *DB) verify(ctx context.Context, cands []Item, q geom.Point) ([]Item, error) {
	in := make([]bool, len(cands))
	err := exec.ForEach(ctx, len(cands), db.workers, cancel.SiteCustomer, func(ctx context.Context, i int) error {
		member, err := db.IsReverseSkylineCtx(ctx, cands[i], q)
		in[i] = member
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []Item
	for i, ok := range in {
		if ok {
			out = append(out, cands[i])
		}
	}
	return out, nil
}

// globalSkylineBBS runs the candidate traversal under the tree read lock,
// counting into cnt.
func (db *DB) globalSkylineBBS(ctx context.Context, cnt *obs.Counts, q geom.Point) (*skyline.GlobalSkyline, error) {
	_, chk := cancel.Bind(ctx)
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return skyline.GlobalSkylineBBSChecked(chk, cnt, db.tree, q)
}

// DynamicSkylineCtx computes DSL(c) over the products via branch-and-bound
// on the R*-tree.
func (db *DB) DynamicSkylineCtx(ctx context.Context, c geom.Point) ([]Item, error) {
	return db.DynamicSkylineExcludingCtx(ctx, c, NoExclude)
}

// DynamicSkylineExcluding is DynamicSkylineExcludingCtx without a deadline.
func (db *DB) DynamicSkylineExcluding(c geom.Point, excludeID int) []Item {
	out, _ := db.DynamicSkylineExcludingCtx(context.Background(), c, excludeID)
	return out
}

// DynamicSkylineExcludingCtx computes DSL(c) over the products without the
// record whose ID is excludeID (monochromatic convention). Pass NoExclude to
// keep everything.
func (db *DB) DynamicSkylineExcludingCtx(ctx context.Context, c geom.Point, excludeID int) ([]Item, error) {
	return db.DynamicSkylineWithinCtx(ctx, c, excludeID, nil, 0)
}

// DynamicSkylineWithinCtx is DynamicSkylineExcludingCtx bounded as in
// skyline.DynamicBBSExcludingChecked: a non-nil window keeps only the DSL
// points within it in the space transformed around c (edges included), and
// a positive limit stops after that many points. Each call counts one DSL
// computation. It never reads or fills the DSL cache, which holds full
// skylines only.
func (db *DB) DynamicSkylineWithinCtx(ctx context.Context, c geom.Point, excludeID int, window geom.Point, limit int) ([]Item, error) {
	var cnt obs.Counts
	out, err := db.dynamicSkyline(ctx, &cnt, c, excludeID, window, limit)
	obs.Flush(ctx, &cnt)
	return out, err
}

// dynamicSkyline is one DSL computation under the tree read lock, counted
// into cnt.
func (db *DB) dynamicSkyline(ctx context.Context, cnt *obs.Counts, c geom.Point, excludeID int, window geom.Point, limit int) ([]Item, error) {
	_, chk := cancel.Bind(ctx)
	cnt.DSLComputations++
	if excludeID == NoExclude {
		excludeID = skyline.NoExclude
	}
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return skyline.DynamicBBSExcludingChecked(chk, cnt, db.tree, c, excludeID, window, limit)
}

// DynamicSkylineOfCtx computes DSL(c.Point) excluding excludeID through the
// DSL cache when one is enabled: a hit must match the customer's point, the
// exclusion convention, and the current mutation generation; anything else
// recomputes and refreshes the entry. The lookup's outcome is counted with
// the query's other work. Callers must not modify the returned slice — it
// may be shared with other queries.
func (db *DB) DynamicSkylineOfCtx(ctx context.Context, c Item, excludeID int) ([]Item, error) {
	if db.dsl == nil {
		return db.DynamicSkylineExcludingCtx(ctx, c.Point, excludeID)
	}
	var cnt obs.Counts
	defer obs.Flush(ctx, &cnt)
	gen := db.gen.Load()
	e, ok := db.dsl.Get(c.ID)
	if !ok {
		cnt.CacheMisses++
	} else {
		cnt.CacheHits++
		if e.gen == gen && e.exclude == excludeID && e.point.Equal(c.Point) {
			return e.items, nil
		}
		// Found but generation- or key-invalidated: a stale-on-arrival hit.
		db.dsl.MarkStale()
		cnt.CacheStale++
	}
	out, err := db.dynamicSkyline(ctx, &cnt, c.Point, excludeID, nil, 0)
	if err != nil {
		return nil, err
	}
	// Stamped with the pre-computation generation: if a mutation raced with
	// the traversal the entry is already stale and will never be served.
	db.dsl.Put(c.ID, dslEntry{point: c.Point.Clone(), exclude: excludeID, gen: gen, items: out})
	return out, nil
}

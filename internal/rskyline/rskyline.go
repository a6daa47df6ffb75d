// Package rskyline computes reverse skylines (Definition 3): given a product
// set P indexed by an R*-tree, a customer set C and a query product q, the
// reverse skyline RSL(q) is the set of customers whose dynamic skyline over
// P ∪ {q} contains q.
//
// Membership is verified by the window-query test of §II of the paper: c is
// in RSL(q) iff the window query centred at c with half-extent |c − q| finds
// no product that dynamically dominates q with respect to c. A
// Dellis–Seeger-style candidate filter based on the global skyline of P
// (package skyline) prunes most customers before any window query runs.
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

// NoExclude is the sentinel for WindowQuery's excludeID meaning "exclude
// nothing". Dataset IDs are non-negative.
const NoExclude = -1

// DB holds an R*-tree over the product set plus the dimensionality, and is
// the substrate every reverse-skyline and why-not computation runs against.
//
// All query methods are safe for concurrent use with each other and with
// Insert/Delete: index traversals run under a read lock, mutations under a
// write lock, and every memoised structure is either purged on mutation or
// validated against the mutation generation. Only the raw Tree() accessor is
// exempt — callers holding it must serialise against mutations themselves.
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
	// itemCache memoises Tree().Items() for the candidate-generation paths;
	// guarded by itemMu and invalidated on mutation, so concurrent read-only
	// queries stay race-free.
	itemMu    sync.Mutex
	itemCache []Item
	// dsl memoises dynamic skylines per customer ID (nil = caching off).
	dsl *exec.Cache[int, dslEntry]
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
	return &DB{tree: rtree.BulkLoad(dims, products, cfg), dims: dims}
}

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
	db.invalidateItems()
}

func (db *DB) invalidateItems() {
	db.itemMu.Lock()
	db.itemCache = nil
	db.itemMu.Unlock()
}

// Items returns all products, memoised between mutations. Callers must not
// modify the returned slice. Safe for concurrent use alongside other
// read-only queries.
func (db *DB) Items() []Item {
	db.itemMu.Lock()
	defer db.itemMu.Unlock()
	if db.itemCache == nil {
		db.itemCache = db.snapshotItems()
	}
	return db.itemCache
}

// snapshotItems reads the full item list under the tree read lock.
func (db *DB) snapshotItems() []Item {
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return db.tree.Items()
}

// WindowQuery returns Λ = window_query(c, q): every product inside the
// closed box centred at c with per-dimension half-extent |c_i − q_i| that
// dynamically dominates q with respect to c. Products with ID == excludeID
// are skipped (pass NoExclude to keep all), which implements the
// monochromatic convention that a customer's own product record cannot
// block it.
func (db *DB) WindowQuery(c, q geom.Point, excludeID int) []Item {
	out, _ := db.WindowQueryChecked(nil, c, q, excludeID)
	return out
}

// WindowQueryChecked is WindowQuery with cooperative cancellation.
func (db *DB) WindowQueryChecked(chk *cancel.Checker, c, q geom.Point, excludeID int) ([]Item, error) {
	obs.AddWindowQueries(1)
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	var out []Item
	dt := 0 // batched: one atomic flush per query, not per item
	err := db.tree.SearchChecked(chk, geom.WindowRect(c, q), func(it Item) bool {
		if it.ID != excludeID {
			dt++
			if geom.DynDominates(c, it.Point, q) {
				out = append(out, it)
			}
		}
		return true
	})
	obs.AddDominanceTests(dt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WindowExists reports whether window_query(c, q) is non-empty, stopping at
// the first dominating product.
func (db *DB) WindowExists(c, q geom.Point, excludeID int) bool {
	found, _ := db.WindowExistsChecked(nil, c, q, excludeID)
	return found
}

// WindowExistsChecked is WindowExists with cooperative cancellation.
func (db *DB) WindowExistsChecked(chk *cancel.Checker, c, q geom.Point, excludeID int) (bool, error) {
	obs.AddWindowQueries(1)
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	dt := 0
	found, err := db.tree.ExistsChecked(chk, geom.WindowRect(c, q), func(it Item) bool {
		if it.ID == excludeID {
			return false
		}
		dt++
		return geom.DynDominates(c, it.Point, q)
	})
	obs.AddDominanceTests(dt)
	return found, err
}

// WindowFrontier returns the members of window_query(c, q) minimal under
// dynamic dominance with respect to centre, without materialising Λ: a
// branch-and-bound traversal ordered by transformed distance to centre prunes
// every subtree already dominated by a found frontier member. centre is q for
// Algorithm 1's frontier and c for Algorithm 2's. The result equals
// filtering WindowQuery(c, q, excludeID) down to its dominance minima, but
// touches only a fraction of the window when Λ is large.
func (db *DB) WindowFrontier(c, q, centre geom.Point, excludeID int) []Item {
	out, _ := db.WindowFrontierChecked(nil, c, q, centre, excludeID)
	return out
}

// WindowFrontierChecked is WindowFrontier with cooperative cancellation at
// node-visit granularity; a cancelled traversal returns the context's error
// and no partial frontier.
func (db *DB) WindowFrontierChecked(chk *cancel.Checker, c, q, centre geom.Point, excludeID int) ([]Item, error) {
	obs.AddWindowQueries(1)
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
	err := db.tree.GuidedSearchChecked(chk, window,
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
		obs.AddDominanceTests(dt)
		obs.AddPruned(pr)
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
	obs.AddDominanceTests(dt)
	obs.AddPruned(pr)
	return out, nil
}

// IsReverseSkyline reports whether customer c belongs to RSL(q): the window
// query centred at c.Point must find no dominating product other than c's
// own record.
func (db *DB) IsReverseSkyline(c Item, q geom.Point) bool {
	return !db.WindowExists(c.Point, q, c.ID)
}

// IsReverseSkylineChecked is IsReverseSkyline with cooperative cancellation.
func (db *DB) IsReverseSkylineChecked(chk *cancel.Checker, c Item, q geom.Point) (bool, error) {
	found, err := db.WindowExistsChecked(chk, c.Point, q, c.ID)
	return !found, err
}

// ReverseSkyline computes RSL(q) over the given customers by running the
// window-existence test for each customer. This is the direct §II method.
func (db *DB) ReverseSkyline(customers []Item, q geom.Point) []Item {
	out, _ := db.ReverseSkylineChecked(nil, customers, q)
	return out
}

// ReverseSkylineChecked is ReverseSkyline with a cancellation checkpoint per
// customer (each customer costs one window-existence query).
func (db *DB) ReverseSkylineChecked(chk *cancel.Checker, customers []Item, q geom.Point) ([]Item, error) {
	var out []Item
	for _, c := range customers {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return nil, err
		}
		in, err := db.IsReverseSkylineChecked(chk, c, q)
		if err != nil {
			return nil, err
		}
		if in {
			out = append(out, c)
		}
	}
	return out, nil
}

// ReverseSkylineFiltered computes RSL(q) with the global-skyline candidate
// filter: a customer globally dominated (w.r.t. q) by any product cannot be
// in RSL(q), and it suffices to test against the global skyline of P. The
// surviving candidates are verified with window-existence queries. The result
// is identical to ReverseSkyline; only the work differs.
func (db *DB) ReverseSkylineFiltered(customers []Item, q geom.Point) []Item {
	out, _ := db.ReverseSkylineFilteredChecked(nil, customers, q)
	return out
}

// ReverseSkylineFilteredChecked is ReverseSkylineFiltered with a cancellation
// checkpoint per candidate customer.
func (db *DB) ReverseSkylineFilteredChecked(chk *cancel.Checker, customers []Item, q geom.Point) ([]Item, error) {
	if err := chk.Err(); err != nil {
		return nil, err
	}
	gsp := skyline.GlobalSkyline(db.Items(), q)
	var out []Item
	dt := 0
	gdPruned := 0 // customers eliminated by the global-dominance filter
	defer func() {
		obs.AddDominanceTests(dt)
		obs.AddPruned(gdPruned)
	}()
	for _, c := range customers {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return nil, err
		}
		pruned := false
		for _, p := range gsp {
			if p.ID != c.ID {
				dt++
				if skyline.GlobalDominates(q, p.Point, c.Point) {
					pruned = true
					break
				}
			}
		}
		if pruned {
			gdPruned++
			continue
		}
		in, err := db.IsReverseSkylineChecked(chk, c, q)
		if err != nil {
			return nil, err
		}
		if in {
			out = append(out, c)
		}
	}
	return out, nil
}

// ReverseSkylineMono computes RSL(q) in the monochromatic setting where the
// customer preferences are the product records themselves (the paper's
// experimental setup). Since a reverse-skyline member cannot be globally
// dominated by any product, the candidates are exactly the global skyline of
// the dataset, so only |GSP| window queries run instead of |P|.
func (db *DB) ReverseSkylineMono(q geom.Point) []Item {
	var out []Item
	for _, c := range skyline.GlobalSkyline(db.Items(), q) {
		if db.IsReverseSkyline(c, q) {
			out = append(out, c)
		}
	}
	return out
}

// ReverseSkylineBBRS computes RSL(q) in the monochromatic setting with the
// full index-based BBRS pipeline (Dellis & Seeger, VLDB 2007): the global
// skyline candidates come from a branch-and-bound traversal of the R*-tree
// (touching only the index fraction that can contain candidates) and each
// candidate is verified with an existence window query. Identical results to
// ReverseSkylineMono.
func (db *DB) ReverseSkylineBBRS(q geom.Point) []Item {
	out, _ := db.ReverseSkylineBBRSChecked(nil, q)
	return out
}

// ReverseSkylineBBRSChecked is ReverseSkylineBBRS with cooperative
// cancellation in both the candidate traversal and the per-candidate
// verification loop.
func (db *DB) ReverseSkylineBBRSChecked(chk *cancel.Checker, q geom.Point) ([]Item, error) {
	cands, err := db.globalSkylineBBS(chk, q)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, c := range cands {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return nil, err
		}
		in, err := db.IsReverseSkylineChecked(chk, c, q)
		if err != nil {
			return nil, err
		}
		if in {
			out = append(out, c)
		}
	}
	return out, nil
}

// globalSkylineBBS runs the candidate traversal under the tree read lock.
func (db *DB) globalSkylineBBS(chk *cancel.Checker, q geom.Point) ([]Item, error) {
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return skyline.GlobalSkylineBBSChecked(chk, db.tree, q)
}

// DynamicSkyline computes DSL(c) over the products via branch-and-bound on
// the R*-tree.
func (db *DB) DynamicSkyline(c geom.Point) []Item {
	out, _ := db.DynamicSkylineChecked(nil, c)
	return out
}

// DynamicSkylineChecked is DynamicSkyline with cooperative cancellation.
func (db *DB) DynamicSkylineChecked(chk *cancel.Checker, c geom.Point) ([]Item, error) {
	obs.AddDSLComputations(1)
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return skyline.DynamicBBSChecked(chk, db.tree, c)
}

// DynamicSkylineExcluding computes DSL(c) over the products without the
// record whose ID is excludeID (monochromatic convention). Pass NoExclude to
// keep everything.
func (db *DB) DynamicSkylineExcluding(c geom.Point, excludeID int) []Item {
	out, _ := db.DynamicSkylineExcludingChecked(nil, c, excludeID)
	return out
}

// DynamicSkylineExcludingChecked is DynamicSkylineExcluding with cooperative
// cancellation.
func (db *DB) DynamicSkylineExcludingChecked(chk *cancel.Checker, c geom.Point, excludeID int) ([]Item, error) {
	if excludeID == NoExclude {
		return db.DynamicSkylineChecked(chk, c)
	}
	obs.AddDSLComputations(1)
	db.treeMu.RLock()
	defer db.treeMu.RUnlock()
	return skyline.DynamicBBSExcludingChecked(chk, db.tree, c, excludeID)
}

// DynamicSkylineOfChecked computes DSL(c.Point) excluding excludeID through
// the DSL cache when one is enabled: a hit must match the customer's point,
// the exclusion convention, and the current mutation generation; anything
// else recomputes and refreshes the entry. Callers must not modify the
// returned slice — it may be shared with other queries.
func (db *DB) DynamicSkylineOfChecked(chk *cancel.Checker, c Item, excludeID int) ([]Item, error) {
	if db.dsl == nil {
		return db.DynamicSkylineExcludingChecked(chk, c.Point, excludeID)
	}
	gen := db.gen.Load()
	if e, ok := db.dsl.Get(c.ID); ok {
		if e.gen == gen && e.exclude == excludeID && e.point.Equal(c.Point) {
			return e.items, nil
		}
		// Found but generation- or key-invalidated: a stale-on-arrival hit.
		db.dsl.MarkStale()
		obs.AddCacheStale(1)
	}
	out, err := db.DynamicSkylineExcludingChecked(chk, c.Point, excludeID)
	if err != nil {
		return nil, err
	}
	// Stamped with the pre-computation generation: if a mutation raced with
	// the traversal the entry is already stale and will never be served.
	db.dsl.Put(c.ID, dslEntry{point: c.Point.Clone(), exclude: excludeID, gen: gen, items: out})
	return out, nil
}

// --- Parallel reverse-skyline variants --------------------------------------
//
// Each variant fans the per-customer verification loop of its sequential
// counterpart out over an internal/exec worker pool and returns an identical,
// deterministically ordered result: membership flags land in per-index slots
// and the output is assembled in input order afterwards. workers <= 1 runs
// the sequential code path unchanged.

// ReverseSkylineParallel is ReverseSkyline with the per-customer window
// queries fanned out over workers goroutines (0 = GOMAXPROCS).
func (db *DB) ReverseSkylineParallel(ctx context.Context, customers []Item, q geom.Point, workers int) ([]Item, error) {
	if exec.Resolve(workers, len(customers)) == 1 {
		return db.ReverseSkylineChecked(cancel.FromContext(ctx), customers, q)
	}
	in := make([]bool, len(customers))
	err := exec.ForEach(ctx, len(customers), workers, cancel.SiteCustomer, func(chk *cancel.Checker, i int) error {
		member, err := db.IsReverseSkylineChecked(chk, customers[i], q)
		in[i] = member
		return err
	})
	if err != nil {
		return nil, err
	}
	return selectMembers(customers, in), nil
}

// ReverseSkylineFilteredParallel is ReverseSkylineFiltered with the
// per-candidate verification fanned out over workers goroutines.
func (db *DB) ReverseSkylineFilteredParallel(ctx context.Context, customers []Item, q geom.Point, workers int) ([]Item, error) {
	if exec.Resolve(workers, len(customers)) == 1 {
		return db.ReverseSkylineFilteredChecked(cancel.FromContext(ctx), customers, q)
	}
	gsp := skyline.GlobalSkyline(db.Items(), q)
	in := make([]bool, len(customers))
	err := exec.ForEach(ctx, len(customers), workers, cancel.SiteCustomer, func(chk *cancel.Checker, i int) error {
		c := customers[i]
		dt := 0 // batched per job: workers share the global counter
		for _, p := range gsp {
			if p.ID != c.ID {
				dt++
				if skyline.GlobalDominates(q, p.Point, c.Point) {
					obs.AddDominanceTests(dt)
					obs.AddPruned(1)
					return nil // pruned: cannot be a reverse-skyline member
				}
			}
		}
		obs.AddDominanceTests(dt)
		member, err := db.IsReverseSkylineChecked(chk, c, q)
		in[i] = member
		return err
	})
	if err != nil {
		return nil, err
	}
	return selectMembers(customers, in), nil
}

// ReverseSkylineBBRSParallel is ReverseSkylineBBRS with the per-candidate
// verification fanned out over workers goroutines; the branch-and-bound
// candidate traversal itself stays sequential (it is a tiny fraction of the
// work and inherently ordered).
func (db *DB) ReverseSkylineBBRSParallel(ctx context.Context, q geom.Point, workers int) ([]Item, error) {
	chk := cancel.FromContext(ctx)
	cands, err := db.globalSkylineBBS(chk, q)
	if err != nil {
		return nil, err
	}
	if exec.Resolve(workers, len(cands)) == 1 {
		var out []Item
		for _, c := range cands {
			if err := chk.Point(cancel.SiteCustomer); err != nil {
				return nil, err
			}
			in, err := db.IsReverseSkylineChecked(chk, c, q)
			if err != nil {
				return nil, err
			}
			if in {
				out = append(out, c)
			}
		}
		return out, nil
	}
	in := make([]bool, len(cands))
	err = exec.ForEach(ctx, len(cands), workers, cancel.SiteCustomer, func(chk *cancel.Checker, i int) error {
		member, err := db.IsReverseSkylineChecked(chk, cands[i], q)
		in[i] = member
		return err
	})
	if err != nil {
		return nil, err
	}
	return selectMembers(cands, in), nil
}

// selectMembers assembles the positionally flagged members in input order.
func selectMembers(customers []Item, in []bool) []Item {
	var out []Item
	for i, ok := range in {
		if ok {
			out = append(out, customers[i])
		}
	}
	return out
}

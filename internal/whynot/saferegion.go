package whynot

import (
	"context"
	"math"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
	"repro/internal/skyline"
)

// SafeRegion is SafeRegionCtx without a deadline.
func (e *Engine) SafeRegion(q geom.Point, rsl []Item) region.Set {
	sr, _ := e.SafeRegionCtx(context.Background(), q, rsl)
	return sr
}

// SafeRegionCtx implements Algorithm 3: the exact safe region of q is the
// intersection of the anti-dominance regions of every reverse-skyline point
// (Lemma 2), each represented as a union of rectangles built from the
// customer's dynamic skyline (Fig. 10). rsl must be RSL(q) over the
// customers of interest; an empty rsl yields the whole product universe,
// since q then has no customers to lose. By construction q itself always
// lies in the result. The checkpoint fires once per reverse-skyline member
// (each contributes one DSL computation plus one rectangle-set
// intersection, the part that can grow exponentially with |RSL(q)|).
func (e *Engine) SafeRegionCtx(ctx context.Context, q geom.Point, rsl []Item) (region.Set, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	return e.safeRegionPhase(ctx, q, rsl, nil)
}

// safeRegionPhase runs safeRegion as one query phase, named after its
// construction ("saferegion.exact" or "saferegion.approx"), whose plan node
// counts the members in and the rectangles out. Every safe-region caller
// opens the phase here, and its workers run under the phase's context, so
// it reads the same at every worker count.
func (e *Engine) safeRegionPhase(ctx context.Context, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	name := "saferegion.exact"
	if store != nil {
		name = "saferegion.approx"
	}
	ctx, sp := explain.Phase(ctx, name, explain.RuleSafeRegion)
	defer sp.End()
	sp.SetIn(len(rsl))
	sr, err := e.safeRegion(ctx, q, rsl, store)
	if err == nil {
		sp.SetOut(len(sr))
	}
	return sr, err
}

// safeRegion is the one body of both safe-region constructions: the exact
// one of Algorithm 3 (store == nil) and the approximate one of §VI.B.1,
// which takes each member's anti-DDR from the store's corners and falls back
// to the exact anti-DDR for members the store lacks. The per-member
// anti-DDRs, the bulk of the work, are built on the DB's workers into
// per-index slots; the rectangle-set intersection then folds them in member
// order on the calling goroutine. Each construction polls its own
// checkpoint site, so fault injection can slow one ladder rung without the
// other.
//
// Without a store or an anti-DDR cache, and with at least two members, the
// exact construction runs in two passes of that shape. The bound pass
// (memberWindows) finds a box B that contains SR(q) and gives each member c
// the window [c − b_c, c + b_c] around B. The build pass then computes only
// the part of DSL(c) inside c's window and builds anti-DDR(c) clipped to it.
// A product farther than b_c from c in some dimension dominates no point of
// the window, so each clipped region is exactly anti-DDR(c) ∩ window, which
// contains anti-DDR(c) ∩ B; the fold keeps every rectangle the full fold
// keeps, and the region's prune order makes the lists equal. The cached
// path, the approximate one and a single member (whose anti-DDR reaches the
// universe, so its box bounds nothing) build full regions, so a clipped
// region never enters a cache. A mutation between the passes can leave B
// short of the new SR(q); each clipped region is still a subset of the
// member's anti-DDR at the generation its build saw, so, as with the
// approximate region, the result never loses a customer of that state.
func (e *Engine) safeRegion(ctx context.Context, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	universe, ok := e.DB.Universe()
	if !ok {
		return region.Set{geom.PointRect(q)}, nil
	}
	if len(rsl) == 0 {
		// No reverse-skyline points: every position is safe within the
		// universe (extended symmetrically around q like any anti-DDR).
		u := universe.TransformMinMax(q).Hi
		return region.Set{{Lo: q.Sub(u), Hi: q.Add(u)}}, nil
	}
	site := cancel.SiteSafeRegion
	if store != nil {
		site = cancel.SiteApproxSafeRegion
	}
	var windows []geom.Point
	if store == nil && e.addr == nil && len(rsl) >= 2 {
		var err error
		if windows, err = e.memberWindows(ctx, rsl, universe, site); err != nil {
			return nil, err
		}
	}
	adds := make([]region.Set, len(rsl))
	err := exec.ForEach(ctx, len(rsl), e.DB.Workers(), site, func(ctx context.Context, i int) error {
		c := rsl[i]
		poll := pollAt(ctx, site)
		var err error
		switch {
		case windows != nil:
			adds[i], err = e.antiDDRWithin(ctx, c, universe, windows[i], 0, poll)
			return err
		case store != nil:
			if corners, found := store.Corners(c.ID); found {
				adds[i] = region.AntiDDRFromCorners(c.Point, corners)
				return nil
			}
		}
		adds[i], err = e.antiDDRCached(ctx, c, universe, poll)
		return err
	})
	if err != nil {
		return nil, err
	}
	sr, err := intersectAll(adds, pollAt(ctx, site))
	if err != nil {
		return nil, err
	}
	return ensureContainsQ(sr, q), nil
}

// boundPoints is how many DSL points per member the bound pass takes.
const boundPoints = 2

// memberWindows is the bound pass of the exact construction. The first
// boundPoints points of a member's DSL traversal are products, and the
// anti-DDR of any subset of the products contains the member's anti-DDR; so
// the ordered fold of these supersets contains SR(q), and so does its
// bounding box B. It returns, per member c, the half-extent b_c of the
// smallest box centred at c that contains B (windowAround), or nil when the
// supersets' fold is empty (SR(q) is then empty too, and the build pass
// builds full regions).
func (e *Engine) memberWindows(ctx context.Context, rsl []Item, universe geom.Rect, site string) ([]geom.Point, error) {
	sups := make([]region.Set, len(rsl))
	err := exec.ForEach(ctx, len(rsl), e.DB.Workers(), site, func(ctx context.Context, i int) error {
		var err error
		sups[i], err = e.antiDDRWithin(ctx, rsl[i], universe, nil, boundPoints, pollAt(ctx, site))
		return err
	})
	if err != nil {
		return nil, err
	}
	sup, err := intersectAll(sups, pollAt(ctx, site))
	if err != nil || len(sup) == 0 {
		return nil, err
	}
	b := sup[0]
	for _, r := range sup[1:] {
		b = b.Union(r)
	}
	windows := make([]geom.Point, len(rsl))
	for i, c := range rsl {
		windows[i] = windowAround(c.Point, b)
	}
	return windows, nil
}

// windowAround returns the half-extent w of the smallest box [c − w, c + w]
// containing b. Where rounding leaves c − w above b.Lo or c + w below b.Hi,
// w is widened by one ulp, which always suffices: a wider window keeps the
// clipped construction exact, a narrower one would not.
func windowAround(c geom.Point, b geom.Rect) geom.Point {
	w := make(geom.Point, len(c))
	for i := range c {
		w[i] = math.Max(math.Abs(b.Lo[i]-c[i]), math.Abs(b.Hi[i]-c[i]))
		if c[i]-w[i] > b.Lo[i] || c[i]+w[i] < b.Hi[i] {
			w[i] = math.Nextafter(w[i], math.Inf(1))
		}
	}
	return w
}

// intersectAll folds the member regions in member order (the loop of
// Algorithm 3). It copies adds[0], which may be a shared cached set, since
// the fold and ensureContainsQ append to the result.
func intersectAll(adds []region.Set, poll func() error) (region.Set, error) {
	sr := append(region.Set{}, adds[0]...)
	for _, add := range adds[1:] {
		var err error
		if sr, err = sr.IntersectSetChecked(add, poll); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// antiDDRCached computes the anti-dominance region of customer c against the
// current universe, through the engine's anti-DDR cache when one is enabled.
// A hit must match the customer's position and the current database
// generation; anything else recomputes and refreshes the entry. The
// lookup's outcome is counted with the query's other work. The returned set
// may be shared — callers must not modify it in place.
func (e *Engine) antiDDRCached(ctx context.Context, c Item, universe geom.Rect, poll func() error) (region.Set, error) {
	if e.addr == nil {
		return e.antiDDRCompute(ctx, c, universe, poll)
	}
	var cnt obs.Counts
	defer obs.Flush(ctx, &cnt)
	gen := e.DB.Generation()
	ent, ok := e.addr.Get(c.ID)
	if !ok {
		cnt.CacheMisses++
	} else {
		cnt.CacheHits++
		if ent.gen == gen && ent.point.Equal(c.Point) {
			return ent.set, nil
		}
		// The entry was found but fails validation: a hit that cannot be
		// served. Reclassify it so hit rates stay honest.
		e.addr.MarkStale()
		cnt.CacheStale++
	}
	set, err := e.antiDDRCompute(ctx, c, universe, poll)
	if err != nil {
		return nil, err
	}
	// Stamped with the pre-computation generation: a mutation racing with the
	// traversal leaves the entry stale-on-arrival and it is never served.
	e.addr.Put(c.ID, addrEntry{point: c.Point.Clone(), gen: gen, set: set})
	return set, nil
}

// antiDDRCompute is the uncached per-customer unit of Algorithm 3: DSL(c)
// (through the database's DSL cache when enabled) followed by the Fig. 10
// staircase construction.
func (e *Engine) antiDDRCompute(ctx context.Context, c Item, universe geom.Rect, poll func() error) (region.Set, error) {
	dsl, err := e.DB.DynamicSkylineOfCtx(ctx, c, e.exclude(c))
	if err != nil {
		return nil, err
	}
	return region.AntiDDRChecked(c.Point, points(dsl), universe, nil, poll)
}

// antiDDRWithin builds c's anti-DDR clipped to window (nil for none) from
// the part of DSL(c) inside it, taking at most limit DSL points when limit
// is positive. It reads and fills neither cache.
func (e *Engine) antiDDRWithin(ctx context.Context, c Item, universe geom.Rect, window geom.Point, limit int, poll func() error) (region.Set, error) {
	dsl, err := e.DB.DynamicSkylineWithinCtx(ctx, c.Point, e.exclude(c), window, limit)
	if err != nil {
		return nil, err
	}
	return region.AntiDDRChecked(c.Point, points(dsl), universe, window, poll)
}

// pollAt adapts ctx's checker to the poll-callback form the region
// package's combinatorial loops accept (rectangle-set intersection and
// anti-DDR construction can dwarf any per-customer checkpoint). A context
// with nothing to poll yields a nil poll, so those loops stay zero-overhead.
func pollAt(ctx context.Context, site string) func() error {
	_, chk := cancel.Bind(ctx)
	if chk == nil {
		return nil
	}
	return func() error { return chk.Point(site) }
}

// ensureContainsQ guarantees the trivially safe position q itself is part of
// the region (it always is for the exact construction; the approximate
// construction can miss it, in which case the safe region degrades to {q}
// and MWQ degrades to MWP, matching §VI.B.2's "no worse than MWP" bound).
func ensureContainsQ(sr region.Set, q geom.Point) region.Set {
	if sr.Contains(q) {
		return sr
	}
	return append(sr, geom.PointRect(q))
}

func points(items []Item) []geom.Point {
	out := make([]geom.Point, len(items))
	for i, it := range items {
		out[i] = it.Point
	}
	return out
}

// ApproxStore holds the pre-computed k-sampled dynamic skylines of §VI.B.1,
// the offline structure that turns safe-region construction from minutes
// into seconds (Fig. 17) at the price of a smaller (but always safe)
// region.
type ApproxStore struct {
	K       int
	SortDim int
	// corners maps a customer ID to the transformed corner points of its
	// approximate anti-DDR.
	corners map[int][]geom.Point
}

// BuildApproxStore is BuildApproxStoreCtx without a deadline.
func (e *Engine) BuildApproxStore(customers []Item, k, sortDim int) *ApproxStore {
	store, _ := e.BuildApproxStoreCtx(context.Background(), customers, k, sortDim)
	return store
}

// BuildApproxStoreCtx pre-computes approximate anti-DDR corners for every
// given customer: the full DSL is computed once per customer, k-sampled, and
// the resulting corners stored (first and last sorted points always
// retained, no successive-pair merging — Fig. 16). Each customer's dynamic
// skyline is an independent read-only index traversal, so the customers fan
// out over the DB's workers; the corners land in per-index slots and enter
// the map in customer order once the pool drains.
func (e *Engine) BuildApproxStoreCtx(ctx context.Context, customers []Item, k, sortDim int) (*ApproxStore, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	store := &ApproxStore{K: k, SortDim: sortDim, corners: make(map[int][]geom.Point, len(customers))}
	universe, ok := e.DB.Universe()
	if !ok {
		return store, nil
	}
	corners := make([][]geom.Point, len(customers))
	err = exec.ForEach(ctx, len(customers), e.DB.Workers(), cancel.SiteStoreBuild, func(ctx context.Context, i int) error {
		c := customers[i]
		dsl, err := e.DB.DynamicSkylineExcludingCtx(ctx, c.Point, e.exclude(c))
		if err != nil {
			return err
		}
		sampled := skyline.ApproxDynamic(dsl, c.Point, k, sortDim)
		u := universe.TransformMinMax(c.Point).Hi
		corners[i] = region.ApproxAntiDDRCorners(c.Point, points(sampled), u, sortDim)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range customers {
		store.corners[c.ID] = corners[i]
	}
	return store, nil
}

// Corners returns the stored transformed corners for a customer ID; ok is
// false when the customer was not pre-computed.
func (s *ApproxStore) Corners(id int) ([]geom.Point, bool) {
	c, ok := s.corners[id]
	return c, ok
}

// ApproxSafeRegion is ApproxSafeRegionCtx without a deadline.
func (e *Engine) ApproxSafeRegion(q geom.Point, rsl []Item, store *ApproxStore) region.Set {
	sr, _ := e.ApproxSafeRegionCtx(context.Background(), q, rsl, store)
	return sr
}

// ApproxSafeRegionCtx assembles the approximate safe region from
// pre-computed corners. Customers missing from the store fall back to an
// exact anti-DDR computation, keeping the result correct (always a subset of
// the exact safe region, so no existing customer can be lost). Its
// checkpoints use a distinct site from the exact construction so fault
// injection can slow one rung of the degradation ladder without the other.
func (e *Engine) ApproxSafeRegionCtx(ctx context.Context, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	return e.safeRegionPhase(ctx, q, rsl, store)
}

// TruncateSafeRegion implements the §V.B flexibility note: clip the safe
// region to a feature-limit box (e.g. "the price can only move within
// [8K, 12K]"). Truncation preserves the no-customer-lost guarantee; the
// region only gets smaller. If q itself falls outside the limits the result
// can be empty — callers should treat that as "the limits forbid every safe
// position".
func TruncateSafeRegion(sr region.Set, limits geom.Rect) region.Set {
	return sr.IntersectRect(limits)
}

// ExpandSafeRegion implements the other direction of the §V.B note: relax
// the safe region to the whole feature box, accepting that customers may be
// lost. It returns the expanded region together with the customers of rsl
// that would be lost at a given position (use LostCustomersCtx per
// candidate position to quantify the side effect).
func ExpandSafeRegion(limits geom.Rect) region.Set {
	return region.Set{limits.Clone()}
}

// LostCustomersCtx returns the members of rsl that would leave the reverse
// skyline if the query point moved to qStar — the side-effect measure for
// truncated/expanded safe regions and for raw MQP answers. It runs one
// window-existence probe per reverse-skyline member.
func (e *Engine) LostCustomersCtx(ctx context.Context, qStar geom.Point, rsl []Item) ([]Item, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	_, chk := cancel.Bind(ctx)
	var lost []Item
	for _, c := range rsl {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return nil, err
		}
		gone, err := e.DB.WindowExistsCtx(ctx, c.Point, qStar, e.exclude(c))
		if err != nil {
			return nil, err
		}
		if gone {
			lost = append(lost, c)
		}
	}
	return lost, nil
}

// AntiDDROfCtx returns the anti-dominance region of an arbitrary point as a
// rectangle set (used by Algorithm 4 for the why-not point and exposed for
// callers that want to inspect it).
func (e *Engine) AntiDDROfCtx(ctx context.Context, c Item) (region.Set, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	return e.antiDDROf(ctx, c)
}

func (e *Engine) antiDDROf(ctx context.Context, c Item) (region.Set, error) {
	universe, ok := e.DB.Universe()
	if !ok {
		return region.Set{geom.PointRect(c.Point)}, nil
	}
	return e.antiDDRCompute(ctx, c, universe, pollAt(ctx, cancel.SiteAntiDDR))
}

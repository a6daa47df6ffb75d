package skyline

import (
	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// GlobalSkyline is the global skyline of an indexed item set with respect
// to q, as GlobalSkylineBBSChecked finds it: the members, and per canonical
// orthant around q the members that can globally dominate into it.
type GlobalSkyline struct {
	// Members are the items no other item globally dominates, in discovery
	// order (ascending transformed L1 distance from q).
	Members []Item
	q       geom.Point
	// byOrthant[g] lists, in discovery order, the members that can globally
	// dominate a point whose canonical orthant is g: those on g's side of q
	// in every dimension where they are off q's axis. A member on one of q's
	// axes is filed under the orthants on both sides of it; a record exactly
	// at q is filed nowhere, since it only ties window distances and blocks
	// nobody.
	byOrthant [][]dominator
	tr        geom.Point // Dominates' scratch transform
}

// dominator is a filed member: its ID and its transform |p − q|.
type dominator struct {
	id int
	tr geom.Point
}

// canonOf returns p's canonical orthant around q: bit i is set when
// p_i ≥ q_i, so zero offsets count as positive.
func canonOf(p, q geom.Point) int {
	mask := 0
	for i := range q {
		if p[i] >= q[i] {
			mask |= 1 << i
		}
	}
	return mask
}

// file appends a member to the list of every orthant it can dominate into:
// its canonical orthant with each on-axis bit set either way.
func (g *GlobalSkyline) file(id int, tr geom.Point, canon int) {
	axis := 0
	for i, v := range tr {
		if v == 0 {
			axis |= 1 << i
		}
	}
	s := dominator{id: id, tr: tr}
	for sub := axis; ; sub = (sub - 1) & axis {
		m := canon&^axis | sub
		g.byOrthant[m] = append(g.byOrthant[m], s)
		if sub == 0 {
			return
		}
	}
}

// Dominates reports whether a member other than c's own record globally
// dominates c, and how many dominance tests that took. Only the members
// filed under c's canonical orthant can: every other one lies strictly
// across q from c, or off q's axis where c lies on it. It transforms c into
// a scratch buffer, so a GlobalSkyline serves one goroutine at a time.
func (g *GlobalSkyline) Dominates(c Item) (dominated bool, tests int) {
	c.Point.TransformInto(g.q, g.tr)
	for _, s := range g.byOrthant[canonOf(c.Point, g.q)] {
		if s.id == c.ID {
			continue
		}
		tests++
		if s.tr.Dominates(g.tr) {
			return true, tests
		}
	}
	return false, tests
}

// GlobalSkylineBBSChecked computes the global skyline with respect to q by
// branch-and-bound over the R*-tree, in the style of the BBRS algorithm of
// Dellis & Seeger (VLDB 2007): nodes are visited in ascending transformed
// mindist order and a subtree is pruned when it lies entirely inside one
// closed orthant around q and an already-found global-skyline point of that
// orthant dominates its transformed lower corner. Subtrees straddling an
// orthant boundary are never pruned (they are near q and cheap to expand).
// It touches only the part of the index that can contain global-skyline
// points. The result also answers global-dominance tests against its
// members (Dominates).
//
// The checker (nil for none) fires on every node/item expansion of the
// branch-and-bound loop, and a cancelled traversal returns the context's
// error with a nil result. Node visits, dominance tests and discards are
// counted into c.
func GlobalSkylineBBSChecked(chk *cancel.Checker, c *obs.Counts, t *rtree.Tree, q geom.Point) (*GlobalSkyline, error) {
	d := len(q)
	gs := &GlobalSkyline{q: q, byOrthant: make([][]dominator, 1<<d), tr: make(geom.Point, d)}

	// orthantOf returns the orthant mask of rect around q and whether the
	// rect lies in a single closed orthant (zeros resolve to +).
	orthantOf := func(r geom.Rect) (int, bool) {
		mask := 0
		for i := 0; i < d; i++ {
			switch {
			case r.Lo[i] >= q[i]:
				mask |= 1 << i
			case r.Hi[i] <= q[i]:
				// negative side
			default:
				return 0, false // straddles q in dimension i
			}
		}
		return mask, true
	}

	// Per-traversal scratch for the pruned box's transformed bounds and the
	// tested item's transform; only skyline members get their own copy.
	trR := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	tr := make(geom.Point, d)
	dt := 0
	// Items discarded by dominance, at their entry (a point box) or at the
	// item test; subtree prunes count on the tree only.
	pruned := 0
	prune := func(r geom.Rect) bool {
		g, single := orthantOf(r)
		if !single {
			return false
		}
		sky := gs.byOrthant[g]
		if len(sky) == 0 {
			return false
		}
		r.TransformMinMaxInto(q, trR)
		for _, s := range sky {
			if s.tr.WeaklyDominates(trR.Lo) && !trR.Contains(s.tr) {
				if r.Lo.Equal(r.Hi) {
					pruned++
				}
				return true
			}
		}
		return false
	}

	err := t.BestFirstChecked(
		chk, c,
		// The transformed coordinate sums, as in DynamicBBSExcludingChecked.
		func(p geom.Point) float64 { return p.L1(q) },
		func(r geom.Rect) float64 { return r.MinDistL1(q) },
		prune,
		func(it Item, _ float64) bool {
			it.Point.TransformInto(q, tr)
			g := canonOf(it.Point, q)
			for _, s := range gs.byOrthant[g] {
				dt++
				if s.tr.Dominates(tr) {
					pruned++
					return true
				}
			}
			// A record exactly at q (all-zero transform) is a global-skyline
			// member but must not act as a dominator: it ties every window
			// distance in every dimension and blocks nobody.
			if !zeroPoint(tr) {
				gs.file(it.ID, tr.Clone(), g)
			}
			gs.Members = append(gs.Members, it)
			return true
		},
	)
	c.DominanceTests += uint64(dt)
	c.PrunedEntries += uint64(pruned)
	if err != nil {
		return nil, err
	}
	return gs, nil
}

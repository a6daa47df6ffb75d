package skyline

import (
	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// GlobalSkylineBBS computes the global skyline with respect to q by
// branch-and-bound over the R*-tree, in the style of the BBRS algorithm of
// Dellis & Seeger (VLDB 2007): nodes are visited in ascending transformed
// mindist order and a subtree is pruned when it lies entirely inside one
// closed orthant around q and an already-found global-skyline point of that
// orthant dominates its transformed lower corner. Subtrees straddling an
// orthant boundary are never pruned (they are near q and cheap to expand).
//
// The result equals GlobalSkyline(tree.Items(), q) but touches only the part
// of the index that can contain global-skyline points.
func GlobalSkylineBBS(t *rtree.Tree, q geom.Point) []Item {
	out, _ := GlobalSkylineBBSChecked(nil, t, q)
	return out
}

// GlobalSkylineBBSChecked is GlobalSkylineBBS with cooperative cancellation:
// the checker fires on every node/item expansion of the branch-and-bound
// loop, and a cancelled traversal returns the context's error with a nil
// result.
func GlobalSkylineBBSChecked(chk *cancel.Checker, t *rtree.Tree, q geom.Point) ([]Item, error) {
	d := len(q)
	type skyPoint struct {
		tr    geom.Point
		canon int
	}
	var sky []skyPoint

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

	// compatible reports whether a skyline point in canonical group sg can
	// dominate points whose canonical group is g: sg must match g except
	// where the skyline point sits exactly on q's axis (tr coordinate 0).
	compatible := func(s skyPoint, g int) bool {
		for i := 0; i < d; i++ {
			if s.tr[i] == 0 {
				continue // axis points dominate both sides
			}
			if (s.canon>>i)&1 != (g>>i)&1 {
				return false
			}
		}
		return true
	}

	// Per-traversal scratch for the pruned box's transformed bounds and the
	// tested item's transform; only skyline members get their own copy.
	trR := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	tr := make(geom.Point, d)
	prune := func(r geom.Rect) bool {
		if len(sky) == 0 {
			return false
		}
		g, single := orthantOf(r)
		if !single {
			return false
		}
		r.TransformMinMaxInto(q, trR)
		for _, s := range sky {
			if compatible(s, g) && s.tr.WeaklyDominates(trR.Lo) && !trR.Contains(s.tr) {
				return true
			}
		}
		return false
	}

	canonOf := func(p geom.Point) int {
		mask := 0
		for i := 0; i < d; i++ {
			if p[i] >= q[i] {
				mask |= 1 << i
			}
		}
		return mask
	}

	var out []Item
	dt := 0
	err := t.BestFirstChecked(
		chk,
		// The transformed coordinate sums, as in DynamicBBSExcludingChecked.
		func(p geom.Point) float64 { return p.L1(q) },
		func(r geom.Rect) float64 { return r.MinDistL1(q) },
		prune,
		func(it Item, _ float64) bool {
			it.Point.TransformInto(q, tr)
			g := canonOf(it.Point)
			for _, s := range sky {
				if compatible(s, g) {
					dt++
					if s.tr.Dominates(tr) {
						return true
					}
				}
			}
			// A record exactly at q (all-zero transform) is a global-skyline
			// member but must not act as a dominator: it ties every window
			// distance in every dimension and blocks nobody (see
			// GlobalDominates).
			if !zeroPoint(tr) {
				sky = append(sky, skyPoint{tr: tr.Clone(), canon: g})
			}
			out = append(out, it)
			return true
		},
	)
	obs.AddDominanceTests(dt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

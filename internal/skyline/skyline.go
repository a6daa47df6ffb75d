// Package skyline implements the skyline machinery the paper builds on, all
// of it over an R*-tree by the branch-and-bound skyline (BBS) traversal of
// Papadias et al.: dynamic skylines (Definition 2), computed in the space
// transformed around a centre point; the global skyline used to prune
// reverse-skyline candidates; and the k-sampled approximate dynamic skyline
// of §VI.B.1. (The static skyline of Definition 1 is the dynamic skyline
// around the origin for non-negative data.)
//
// Dominance is strict throughout (≤ in every dimension, < in at least one),
// so duplicate points never dominate each other and are all retained.
package skyline

import (
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// Item aliases the R-tree item type: an identified point.
type Item = rtree.Item

// coordSum is monotone under dominance: no point can dominate one with a
// smaller sum.
func coordSum(p geom.Point) float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// zeroPoint reports whether every coordinate of p is zero — in transformed
// space, whether the original record lies exactly at the centre.
func zeroPoint(p geom.Point) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

// NoExclude is an ID no real item carries: as DynamicBBSExcludingChecked's
// excludeID it makes the exclusion filter inert.
const NoExclude = -1 << 62

// DynamicBBSExcludingChecked computes the dynamic skyline with respect to
// centre c by branch-and-bound over the R*-tree, pruning subtrees whose
// transformed bounding boxes are dominated by an already-found skyline
// point. This is the index-backed DSL computation the paper's safe-region
// construction relies on. The record whose ID is excludeID (NoExclude for
// none) is invisible — the monochromatic convention under which a
// customer's own product record does not shape its dynamic skyline: it
// neither appears in the result nor prunes other points. The checker (nil
// for none) fires at node-expansion granularity; a cancelled traversal
// returns the context's error and a nil (not partial) skyline. Node visits,
// dominance tests and discards are counted into cnt; boxes and points the
// window cuts off count as tree prunes.
//
// A non-nil window bounds the traversal to the closed box [0, window] of
// the transformed space: it returns the constrained skyline of BBS
// (Papadias et al., TODS 2005), the DSL points p with |p − c| ≤ window in
// every dimension. Points on the window's edge are kept. The result is
// exactly DSL(c) restricted to the window, since a product that dominates a
// point of the window lies in the window itself. A positive limit stops
// the traversal after that many skyline points, the first ones in the
// traversal's order of transformed coordinate sums.
func DynamicBBSExcludingChecked(chk *cancel.Checker, cnt *obs.Counts, t *rtree.Tree, c geom.Point, excludeID int, window geom.Point, limit int) ([]Item, error) {
	type skyPoint struct {
		orig Item
		tr   geom.Point
	}
	var sky []skyPoint
	// Per-traversal scratch: the transformed bounds of the box being pruned
	// and the transform of the item being tested. Only skyline members get
	// their own copy.
	trR := geom.Rect{Lo: make(geom.Point, len(c)), Hi: make(geom.Point, len(c))}
	tr := make(geom.Point, len(c))
	prune := func(r geom.Rect) bool {
		if len(sky) == 0 && window == nil {
			return false
		}
		r.TransformMinMaxInto(c, trR)
		if window != nil && !trR.Lo.WeaklyDominates(window) {
			return true // some dimension lies wholly beyond the window
		}
		for _, s := range sky {
			if s.tr.WeaklyDominates(trR.Lo) && !trR.Contains(s.tr) {
				return true
			}
		}
		return false
	}
	var out []Item
	dt := 0
	pruned := 0
	err := t.BestFirstChecked(
		chk, cnt,
		// Σ|c_i − x_i| over the point, and its minimum over the box: the
		// coordinate sums of the transformed point and transformed lower
		// corner, without materialising either.
		func(p geom.Point) float64 { return p.L1(c) },
		func(r geom.Rect) float64 { return r.MinDistL1(c) },
		prune,
		func(it Item, _ float64) bool {
			if it.ID == excludeID {
				return true
			}
			it.Point.TransformInto(c, tr)
			for _, s := range sky {
				dt++
				if s.tr.Dominates(tr) {
					pruned++
					return true
				}
			}
			sky = append(sky, skyPoint{orig: it, tr: tr.Clone()})
			out = append(out, it)
			return limit <= 0 || len(out) < limit
		},
	)
	cnt.DominanceTests += uint64(dt)
	cnt.PrunedEntries += uint64(pruned)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ApproxDynamic returns the k-sampled approximation of a dynamic skyline
// (§VI.B.1 of the paper): the full DSL is sorted by sortDim in the space
// transformed around c, every ⌈|DSL|/k⌉-th point is kept, and the first and
// last points of the sorted sequence are always retained so that the derived
// anti-dominance region keeps its extreme rectangles (Fig. 16). If the DSL
// has at most k points it is returned in sorted order unchanged.
func ApproxDynamic(dsl []Item, c geom.Point, k, sortDim int) []Item {
	if k <= 0 {
		k = 1
	}
	sorted := append([]Item(nil), dsl...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ti := sorted[i].Point.Transform(c)
		tj := sorted[j].Point.Transform(c)
		if ti[sortDim] != tj[sortDim] {
			return ti[sortDim] < tj[sortDim]
		}
		return coordSum(ti) < coordSum(tj)
	})
	if len(sorted) <= k {
		return sorted
	}
	step := (len(sorted) + k - 1) / k
	if step < 1 {
		step = 1
	}
	var out []Item
	for i := 0; i < len(sorted); i += step {
		out = append(out, sorted[i])
	}
	// Always keep the extremes of the sorted sequence.
	if out[len(out)-1].ID != sorted[len(sorted)-1].ID ||
		!out[len(out)-1].Point.Equal(sorted[len(sorted)-1].Point) {
		out = append(out, sorted[len(sorted)-1])
	}
	return out
}

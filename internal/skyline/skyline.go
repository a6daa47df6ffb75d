// Package skyline implements the skyline machinery the paper builds on:
// static skylines (Definition 1) via the branch-and-bound skyline (BBS) of
// Papadias et al. over an R*-tree; dynamic skylines (Definition 2) computed
// in the space transformed around a centre point; the branch-and-bound
// global skyline used to prune reverse-skyline candidates; and the k-sampled
// approximate dynamic skyline of §VI.B.1.
//
// Dominance is strict throughout (≤ in every dimension, < in at least one),
// so duplicate points never dominate each other and are all retained.
package skyline

import (
	"context"
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// Item aliases the R-tree item type: an identified point.
type Item = rtree.Item

// coordSum is the monotone key of the static and dynamic skyline
// traversals: no point can dominate one with a smaller sum.
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

// BBS computes the static skyline with the branch-and-bound skyline algorithm
// over an R*-tree: best-first traversal by coordinate-sum mindist with
// dominance pruning. It accesses only the nodes that can contain skyline
// points. Having no caller context, it flushes its counts to the
// process-global counters only.
func BBS(t *rtree.Tree) []Item {
	var sky []Item
	dt := 0 // point-point only; the rect prune below is not a dominance test
	pruned := 0
	dominatedRect := func(r geom.Rect) bool {
		for _, s := range sky {
			if s.Point.WeaklyDominates(r.Lo) && !r.Contains(s.Point) {
				return true
			}
		}
		return false
	}
	t.BestFirst(
		coordSum,
		func(r geom.Rect) float64 { return coordSum(r.Lo) },
		dominatedRect,
		func(it Item, _ float64) bool {
			for _, s := range sky {
				dt++
				if s.Point.Dominates(it.Point) {
					pruned++
					return true
				}
			}
			sky = append(sky, it)
			return true
		},
	)
	obs.Flush(context.Background(), &obs.Counts{CostSnapshot: obs.CostSnapshot{
		DominanceTests: uint64(dt), PrunedEntries: uint64(pruned),
	}})
	return sky
}

// Dynamic computes the dynamic skyline of items with respect to centre c
// (Definition 2) by transforming every point with f_i(p) = |c_i − p_i| and
// running SFS in the transformed space. Returned items keep their original
// coordinates. An item whose point equals c exactly maps to the origin of
// the transformed space and dominates everything else. Like BBS, it flushes
// its counts to the process-global counters only.
func Dynamic(items []Item, c geom.Point) []Item {
	type ti struct {
		orig Item
		tr   geom.Point
	}
	ts := make([]ti, len(items))
	for i, it := range items {
		ts[i] = ti{orig: it, tr: it.Point.Transform(c)}
	}
	sort.SliceStable(ts, func(i, j int) bool { return coordSum(ts[i].tr) < coordSum(ts[j].tr) })
	var sky []ti
	dt := 0
	pruned := 0
	for _, cand := range ts {
		dominated := false
		for _, s := range sky {
			dt++
			if s.tr.Dominates(cand.tr) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, cand)
		} else {
			pruned++
		}
	}
	obs.Flush(context.Background(), &obs.Counts{CostSnapshot: obs.CostSnapshot{
		DominanceTests: uint64(dt), PrunedEntries: uint64(pruned),
	}})
	out := make([]Item, len(sky))
	for i, s := range sky {
		out[i] = s.orig
	}
	return out
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

// GlobalDominates reports whether a globally dominates b with respect to
// centre q: a and b lie in the same closed orthant around q and |q−a|
// dominates |q−b|. Global dominance is the sound pruning relation for
// reverse-skyline candidates (Dellis & Seeger, VLDB 2007): if a globally
// dominates b then a dynamically dominates q w.r.t. b, so b ∉ RSL(q).
//
// The one degenerate case is a record lying exactly at q: its transformed
// distances are all zero, so it weakly dominates everything, yet for any
// customer b it only ties |a_i−b_i| = |q_i−b_i| in every dimension — never a
// strict dynamic dominance — so it blocks nobody. (For a ≠ q in the same
// closed orthant the implication is exact: |a_i−q_i| ≤ |b_i−q_i| puts a_i
// between q_i and b_i, and the strict dimension forces a_i ≠ q_i there.)
func GlobalDominates(q, a, b geom.Point) bool {
	atQ := true
	for i := range q {
		if (a[i]-q[i])*(b[i]-q[i]) < 0 {
			return false // strictly opposite sides of q
		}
		if a[i] != q[i] {
			atQ = false
		}
	}
	if atQ {
		return false // a record at q ties every window distance
	}
	return geom.DynDominates(q, a, b)
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

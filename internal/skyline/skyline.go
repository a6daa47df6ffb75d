// Package skyline implements the skyline machinery the paper builds on:
// static skylines (Definition 1) via block-nested-loops, sort-filter-skyline
// and divide & conquer; the branch-and-bound skyline (BBS) of Papadias et al.
// over an R*-tree; dynamic skylines (Definition 2) computed in the space
// transformed around a centre point; the orthant-aware global skyline used to
// prune reverse-skyline candidates; and the k-sampled approximate dynamic
// skyline of §VI.B.1.
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

// Of computes the static skyline of items with the default algorithm (SFS).
func Of(items []Item) []Item { return SFS(items) }

// BNL computes the static skyline with the block-nested-loops algorithm of
// Börzsönyi et al. (ICDE 2001). O(n²) worst case; the baseline oracle in
// tests and benchmarks.
func BNL(items []Item) []Item {
	var window []Item
	dt := 0     // batched dominance-test count, one flush per call
	pruned := 0 // batched discard count, same flush discipline
	for _, cand := range items {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			dt++
			if w.Point.Dominates(cand.Point) {
				dominated = true
				keep = append(keep, w)
				continue
			}
			dt++
			if !cand.Point.Dominates(w.Point) {
				keep = append(keep, w)
			} else {
				pruned++
			}
		}
		window = keep
		if !dominated {
			window = append(window, cand)
		} else {
			pruned++
		}
	}
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	return window
}

// SFS computes the static skyline with sort-filter-skyline: items are sorted
// by a monotone score (coordinate sum) so that no item can dominate an
// earlier one, then filtered against the accumulating skyline.
func SFS(items []Item) []Item {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return coordSum(sorted[i].Point) < coordSum(sorted[j].Point)
	})
	var sky []Item
	dt := 0
	pruned := 0
	for _, cand := range sorted {
		dominated := false
		for _, s := range sky {
			dt++
			if s.Point.Dominates(cand.Point) {
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
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	return sky
}

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

// DC computes the static skyline by divide & conquer: partition by the median
// of dimension 0, recurse, then filter the high half against the low half.
func DC(items []Item) []Item {
	if len(items) <= 16 {
		return BNL(items)
	}
	vals := make([]float64, len(items))
	for i, it := range items {
		vals[i] = it.Point[0]
	}
	sort.Float64s(vals)
	median := vals[len(vals)/2]
	var lo, hi []Item
	for _, it := range items {
		if it.Point[0] <= median {
			lo = append(lo, it)
		} else {
			hi = append(hi, it)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		// Degenerate split (many ties on dim 0): fall back.
		return BNL(items)
	}
	skyLo := DC(lo)
	skyHi := DC(hi)
	out := append([]Item(nil), skyLo...)
	dt := 0
	pruned := 0
	for _, h := range skyHi {
		dominated := false
		for _, l := range skyLo {
			dt++
			if l.Point.Dominates(h.Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, h)
		} else {
			pruned++
		}
	}
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	return out
}

// BBS computes the static skyline with the branch-and-bound skyline algorithm
// over an R*-tree: best-first traversal by coordinate-sum mindist with
// dominance pruning. It accesses only the nodes that can contain skyline
// points.
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
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	return sky
}

// Dynamic computes the dynamic skyline of items with respect to centre c
// (Definition 2) by transforming every point with f_i(p) = |c_i − p_i| and
// running SFS in the transformed space. Returned items keep their original
// coordinates. An item whose point equals c exactly maps to the origin of
// the transformed space and dominates everything else.
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
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	out := make([]Item, len(sky))
	for i, s := range sky {
		out[i] = s.orig
	}
	return out
}

// DynamicBBS computes the dynamic skyline with respect to centre c by
// branch-and-bound over the R*-tree, pruning subtrees whose transformed
// bounding boxes are dominated by an already-found skyline point. This is
// the index-backed DSL computation the paper's safe-region construction
// relies on.
func DynamicBBS(t *rtree.Tree, c geom.Point) []Item {
	return DynamicBBSExcluding(t, c, noExclude)
}

// noExclude is an ID no real item carries, making the exclusion filter inert.
const noExclude = -1 << 62

// DynamicBBSChecked is DynamicBBS with cooperative cancellation.
func DynamicBBSChecked(chk *cancel.Checker, t *rtree.Tree, c geom.Point) ([]Item, error) {
	return DynamicBBSExcludingChecked(chk, t, c, noExclude)
}

// DynamicBBSExcluding is DynamicBBS with one record made invisible by ID —
// the monochromatic convention under which a customer's own product record
// does not shape its dynamic skyline. The excluded item neither appears in
// the result nor prunes other points.
func DynamicBBSExcluding(t *rtree.Tree, c geom.Point, excludeID int) []Item {
	out, _ := DynamicBBSExcludingChecked(nil, t, c, excludeID)
	return out
}

// DynamicBBSExcludingChecked is DynamicBBSExcluding with cooperative
// cancellation at node-expansion granularity; a cancelled traversal returns
// the context's error and a nil (not partial) skyline.
func DynamicBBSExcludingChecked(chk *cancel.Checker, t *rtree.Tree, c geom.Point, excludeID int) ([]Item, error) {
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
		if len(sky) == 0 {
			return false
		}
		r.TransformMinMaxInto(c, trR)
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
		chk,
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
			return true
		},
	)
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
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

// GlobalSkyline returns the items not globally dominated by any other item
// with respect to q. It is a superset of RSL(q) candidates.
//
// The computation partitions the data by orthant around q: dominators of a
// point must lie in the same closed orthant, with points on an orthant
// boundary (a coordinate equal to q's) acting as dominators on both sides.
// One transformed-space skyline pass per orthant gives O(2^d · n log n)
// instead of the naive O(n²).
func GlobalSkyline(items []Item, q geom.Point) []Item {
	d := len(q)
	groups := 1 << d
	byGroup := make([][]int32, groups)
	canonical := make([]int, len(items))
	// One backing array for every transformed point and a precomputed sort
	// key keep the allocator and the comparator out of the hot path.
	backing := make([]float64, len(items)*d)
	keys := make([]float64, len(items))
	for idx, it := range items {
		tr := backing[idx*d : (idx+1)*d : (idx+1)*d]
		var sum float64
		for i := 0; i < d; i++ {
			v := it.Point[i] - q[i]
			if v < 0 {
				v = -v
			}
			tr[i] = v
			sum += v
		}
		keys[idx] = sum
		// The canonical group takes zero offsets as positive; compatible
		// groups branch on every zero coordinate.
		canon := 0
		var zeros []int
		for i := 0; i < d; i++ {
			switch {
			case it.Point[i] > q[i]:
				canon |= 1 << i
			case it.Point[i] == q[i]:
				canon |= 1 << i
				zeros = append(zeros, i)
			}
		}
		canonical[idx] = canon
		if len(zeros) == 0 {
			byGroup[canon] = append(byGroup[canon], int32(idx))
			continue
		}
		// Enumerate all groups compatible with the point's sign pattern.
		masks := []int{canon}
		for _, z := range zeros {
			for _, m := range masks {
				masks = append(masks, m&^(1<<z))
			}
			masks = masks[:dedupInts(masks)]
		}
		for _, m := range masks {
			byGroup[m] = append(byGroup[m], int32(idx))
		}
	}
	survives := make([]bool, len(items))
	dt := 0
	pruned := 0 // canonical-group eliminations only: each item at most once
	for g := 0; g < groups; g++ {
		ms := byGroup[g]
		if len(ms) == 0 {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return keys[ms[i]] < keys[ms[j]] })
		var sky []geom.Point
		for _, idx := range ms {
			tr := geom.Point(backing[int(idx)*d : (int(idx)+1)*d])
			dominated := false
			for _, s := range sky {
				dt++
				if s.Dominates(tr) {
					dominated = true
					break
				}
			}
			if !dominated {
				// A record exactly at q (all-zero transform, key 0) is a
				// skyline member but dominates nothing: it ties every
				// customer's window distance in every dimension, so it must
				// not eliminate other candidates (see GlobalDominates).
				if keys[idx] != 0 {
					sky = append(sky, tr)
				}
				if canonical[idx] == g {
					survives[idx] = true
				}
			} else if canonical[idx] == g {
				pruned++
			}
		}
	}
	var out []Item
	for idx, ok := range survives {
		if ok {
			out = append(out, items[idx])
		}
	}
	obs.AddDominanceTests(dt)
	obs.AddPruned(pruned)
	return out
}

// dedupInts compacts duplicates in place and returns the new length.
func dedupInts(a []int) int {
	sort.Ints(a)
	n := 0
	for i, v := range a {
		if i == 0 || v != a[n-1] {
			a[n] = v
			n++
		}
	}
	return n
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

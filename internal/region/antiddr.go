package region

import (
	"sort"

	"repro/internal/geom"
)

// StaircaseCorners2D computes the maximal corners of the downward-closed
// complement of the dominance boxes of tr (transformed dynamic-skyline
// points) within the transformed universe [0, u], using the paper's
// Fig. 10 construction: sort by dimension 0, extend the first point to the
// universe in dimension 1 and the last to the universe in dimension 0, and
// take the coordinate-wise maximum of each successive pair. Dominated
// (redundant) corners are pruned. tr may contain non-skyline points; they are
// filtered first. An empty tr yields the single corner u (the whole
// universe).
func StaircaseCorners2D(tr []geom.Point, u geom.Point) []geom.Point {
	sky := minimalPoints(tr)
	if len(sky) == 0 {
		return []geom.Point{u.Clone()}
	}
	sort.Slice(sky, func(i, j int) bool {
		if sky[i][0] != sky[j][0] {
			return sky[i][0] < sky[j][0]
		}
		return sky[i][1] < sky[j][1]
	})
	corners := make([]geom.Point, 0, len(sky)+1)
	corners = append(corners, geom.NewPoint(sky[0][0], u[1]))
	for i := 0; i+1 < len(sky); i++ {
		corners = append(corners, sky[i].Max(sky[i+1]))
	}
	corners = append(corners, geom.NewPoint(u[0], sky[len(sky)-1][1]))
	return maximalPoints(corners)
}

// StaircaseCornersGrid computes the same maximal corners for any
// dimensionality by enumerating the candidate grid spanned by the skyline
// coordinates and the universe bound: every maximal corner has each
// coordinate equal to some skyline point's coordinate or to the universe.
// A candidate m is in the (closed) complement iff every skyline point s has
// some dimension with m_i ≤ s_i. The corners come out in the grid's
// enumeration order: ascending, with the last dimension most significant.
// The grid has up to (k+1)^d points for k skyline points, so no query path
// calls this: it is the test reference for StaircaseCorners2D and
// localUpperBounds.
func StaircaseCornersGrid(tr []geom.Point, u geom.Point) []geom.Point {
	sky := minimalPoints(tr)
	if len(sky) == 0 {
		return []geom.Point{u.Clone()}
	}
	d := len(u)
	axes := make([][]float64, d)
	for i := 0; i < d; i++ {
		vals := map[float64]bool{u[i]: true}
		for _, s := range sky {
			vals[s[i]] = true
		}
		for v := range vals {
			axes[i] = append(axes[i], v)
		}
		sort.Float64s(axes[i])
	}
	var valid []geom.Point
	idx := make([]int, d)
	for {
		m := make(geom.Point, d)
		for i := range idx {
			m[i] = axes[i][idx[i]]
		}
		ok := true
		for _, s := range sky {
			blocked := true
			for i := range m {
				if m[i] <= s[i] {
					blocked = false
					break
				}
			}
			if blocked {
				ok = false
				break
			}
		}
		if ok {
			valid = append(valid, m)
		}
		// Advance the odometer.
		i := 0
		for ; i < d; i++ {
			idx[i]++
			if idx[i] < len(axes[i]) {
				break
			}
			idx[i] = 0
		}
		if i == d {
			break
		}
	}
	return maximalPoints(valid)
}

// localUpperBounds computes the maximal corners for any dimensionality as
// the local upper bounds of Klamroth, Lacour & Vanderpooten (EJOR 2015).
// It starts from the single bound u. Each point z of tr cuts the box [0, v]
// of every bound v with z < v in every dimension, and the part of that box
// z leaves is covered by the d projections (z_j, v_−j). A projection is kept
// only when no other bound covers it; bounds z does not cut stay maximal.
// The bounds left after the last point are the corners, sorted into
// StaircaseCornersGrid's order so that the rectangle lists built from them
// do not depend on the construction. tr must lie in [0, u]; dominated and
// duplicate points are allowed and leave the result unchanged. At high d
// one point can replace thousands of bounds, so poll is called once per
// bound examined and once per maximal projection checked against the bounds
// z left, not once per point.
func localUpperBounds(tr []geom.Point, u geom.Point, poll func() error) ([]geom.Point, error) {
	bounds := []geom.Point{u.Clone()}
	var next, proj []geom.Point
	for _, z := range tr {
		next, proj = next[:0], proj[:0]
		for _, v := range bounds {
			if err := pollErr(poll); err != nil {
				return nil, err
			}
			if !strictlyBelow(z, v) {
				next = append(next, v)
				continue
			}
			for j := range v {
				p := v.Clone()
				p[j] = z[j]
				proj = append(proj, p)
			}
		}
		kept := len(next)
	projections:
		for _, p := range maximalPoints(proj) {
			if err := pollErr(poll); err != nil {
				return nil, err
			}
			for _, w := range next[:kept] {
				if p.WeaklyDominates(w) {
					continue projections
				}
			}
			next = append(next, p)
		}
		bounds, next = next, bounds
	}
	sort.Slice(bounds, func(i, j int) bool {
		a, b := bounds[i], bounds[j]
		for k := len(a) - 1; k >= 0; k-- {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return bounds, nil
}

// strictlyBelow reports whether z < v in every dimension, i.e. whether the
// dominance box of z cuts into the box [0, v].
func strictlyBelow(z, v geom.Point) bool {
	for i := range z {
		if z[i] >= v[i] {
			return false
		}
	}
	return true
}

// minimalPoints filters pts to those not strictly dominated by another
// (the skyline under min-preference), deduplicating equal points.
func minimalPoints(pts []geom.Point) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if q.Dominates(p) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, kept := range out {
			if kept.Equal(p) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// maximalPoints filters pts to those not weakly dominated from above by
// another point (m is dropped when some other m' ≥ m componentwise),
// deduplicating equal points.
func maximalPoints(pts []geom.Point) []geom.Point {
	var out []geom.Point
	for i, p := range pts {
		covered := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if p.WeaklyDominates(q) && !q.Equal(p) { // q ≥ p, q ≠ p
				covered = true
				break
			}
			if q.Equal(p) && j < i { // duplicate: keep first occurrence
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, p)
		}
	}
	return out
}

// AntiDDR builds the anti-dominance region of centre c as a union of
// original-space rectangles [c − m, c + m], one per staircase corner m of the
// transformed complement of the dominance boxes of dsl (the dynamic skyline
// of c, given in original coordinates). universe is the bounding rectangle of
// the product set; the transformed universe bound is the farthest
// per-dimension absolute distance from c to it, matching the paper's
// "maximum value appearing in the i-th dimension" extension. Rectangles are
// symmetric around c and may extend beyond the data range, exactly as in the
// paper's worked example for c7.
func AntiDDR(c geom.Point, dsl []geom.Point, universe geom.Rect) Set {
	out, _ := AntiDDRChecked(c, dsl, universe, nil, nil)
	return out
}

// AntiDDRChecked is AntiDDR with an optional bound and a
// cooperative-cancellation poll. A non-nil bound b clips the corners to
// min(u, b), so the result is the anti-DDR intersected with the window
// [c − b, c + b]. dsl must then lie inside that window, as a
// window-constrained DSL traversal returns it; no DSL point outside the
// window cuts a box inside it, so none is missing. The corners come from
// the Fig. 10 staircase at d = 2 and from localUpperBounds at d ≥ 3, which
// polls once per bound examined; the final prune polls too. A nil poll
// restores the unpolled loops.
func AntiDDRChecked(c geom.Point, dsl []geom.Point, universe geom.Rect, bound geom.Point, poll func() error) (Set, error) {
	u := universe.TransformMinMax(c).Hi
	if bound != nil {
		u = u.Min(bound)
	}
	tr := make([]geom.Point, len(dsl))
	for i, p := range dsl {
		tr[i] = p.Transform(c)
	}
	var corners []geom.Point
	if len(c) == 2 {
		corners = StaircaseCorners2D(tr, u)
	} else {
		var err error
		corners, err = localUpperBounds(tr, u, poll)
		if err != nil {
			return nil, err
		}
	}
	out := make(Set, 0, len(corners))
	for _, m := range corners {
		out = append(out, geom.Rect{Lo: c.Sub(m), Hi: c.Add(m)})
	}
	return out.prune(poll)
}

// AntiDDRFromCorners builds the original-space anti-DDR rectangles from
// precomputed transformed corners (used by the approximate safe region,
// where corners come from sampled skyline points without pair merging).
func AntiDDRFromCorners(c geom.Point, corners []geom.Point) Set {
	out := make(Set, 0, len(corners))
	for _, m := range corners {
		out = append(out, geom.Rect{Lo: c.Sub(m), Hi: c.Add(m)})
	}
	return out.Prune()
}

// ApproxAntiDDRCorners derives the transformed corners of the approximate
// anti-DDR of §VI.B.1 from the k-sampled dynamic skyline: each sampled point
// is kept as a corner verbatim (no successive-pair merging), and the first
// and last points of the sorted sequence are extended to the universe bound
// in their free dimension so that the extreme rectangles survive (Fig. 16).
// The result underestimates the true anti-DDR, never overestimates it.
func ApproxAntiDDRCorners(c geom.Point, sampled []geom.Point, u geom.Point, sortDim int) []geom.Point {
	if len(sampled) == 0 {
		return []geom.Point{u.Clone()}
	}
	tr := make([]geom.Point, len(sampled))
	for i, p := range sampled {
		tr[i] = p.Transform(c)
	}
	sort.Slice(tr, func(i, j int) bool { return tr[i][sortDim] < tr[j][sortDim] })
	corners := make([]geom.Point, 0, len(tr)+2)
	// Extend the sequence extremes to the universe (2-d semantics from the
	// paper; in higher dimensions only the sort dimension and its complement
	// via the last point's free dimensions are extended).
	first := tr[0].Clone()
	for i := range first {
		if i != sortDim {
			first[i] = u[i]
		}
	}
	first[sortDim] = tr[0][sortDim]
	corners = append(corners, first)
	corners = append(corners, tr...)
	last := tr[len(tr)-1].Clone()
	last[sortDim] = u[sortDim]
	corners = append(corners, last)
	return maximalPoints(corners)
}

// Package region implements the rectangle-set algebra behind the paper's
// safe-region machinery (Section V): the anti-dominance region (anti-DDR) of
// a customer represented as a union of rectangles (Fig. 10), intersections of
// such unions (Algorithm 3 and the overlap test of Algorithm 4), point
// membership, nearest points, and the exact union volume used for the
// safe-region-area experiment (Fig. 14).
//
// Anti-DDR geometry: in the space transformed around a customer c (absolute
// per-dimension distances to c), the anti-dominance region is the
// downward-closed complement of the dominance boxes of DSL(c). Any bounded
// downward-closed region is a finite union of origin-anchored boxes [0, m];
// each such box maps back to the original space as the rectangle
// [c − m, c + m]. The maximal corners m form the staircase of Fig. 10.
package region

import (
	"sort"

	"repro/internal/geom"
)

// Set is a union of closed axis-aligned rectangles. The zero value is the
// empty region.
type Set []geom.Rect

// IsEmpty reports whether the set contains no rectangle.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether p lies in the union.
func (s Set) Contains(p geom.Point) bool {
	for _, r := range s {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for i, r := range s {
		out[i] = r.Clone()
	}
	return out
}

// Prune removes rectangles fully contained in another rectangle of the set.
// The represented region is unchanged.
func (s Set) Prune() Set {
	out, _ := s.prune(nil)
	return out
}

func (s Set) prune(poll func() error) (Set, error) {
	// Larger rectangles first so that containment checks hit early.
	sorted := s.Clone()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Area() > sorted[j].Area() })
	var out Set
	for _, r := range sorted {
		if err := pollErr(poll); err != nil {
			return nil, err
		}
		contained := false
		for _, kept := range out {
			if err := pollErr(poll); err != nil {
				return nil, err
			}
			if kept.ContainsRect(r) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, r)
		}
	}
	return out, nil
}

// IntersectSet intersects two rectangle unions pairwise (the "+ and ·"
// formula of Section V.B), pruning contained results.
func (s Set) IntersectSet(o Set) Set {
	out, _ := s.intersectSet(o, nil)
	return out
}

// IntersectSetChecked is IntersectSet with a cooperative-cancellation poll.
// The pairwise product and the containment prune are where safe-region
// construction grows combinatorially with |RSL(q)| — a single call can dwarf
// any per-customer checkpoint — so both loops poll between iterations. A nil
// poll is valid and restores the unpolled loops.
func (s Set) IntersectSetChecked(o Set, poll func() error) (Set, error) {
	return s.intersectSet(o, poll)
}

func (s Set) intersectSet(o Set, poll func() error) (Set, error) {
	var out Set
	for _, a := range s {
		for _, b := range o {
			if err := pollErr(poll); err != nil {
				return nil, err
			}
			if r, ok := a.Intersect(b); ok {
				out = append(out, r)
			}
		}
	}
	return out.prune(poll)
}

// pollErr invokes a cancellation poll, treating nil as "never cancelled".
func pollErr(poll func() error) error {
	if poll == nil {
		return nil
	}
	return poll()
}

// IntersectRect clips the set against a single rectangle.
func (s Set) IntersectRect(r geom.Rect) Set {
	return s.IntersectSet(Set{r})
}

// NearestPoint returns the point of the union nearest to p under weighted L1
// distance (nil weights mean equal), together with that distance. ok is false
// on an empty set. This implements the nearest_point step of Algorithm 4.
func (s Set) NearestPoint(p geom.Point, w []float64) (geom.Point, float64, bool) {
	if len(s) == 0 {
		return nil, 0, false
	}
	var best geom.Point
	bestD := 0.0
	for i, r := range s {
		n := r.NearestPoint(p)
		d := n.WeightedL1(p, weightsOrEqual(w, len(p)))
		if i == 0 || d < bestD {
			best, bestD = n, d
		}
	}
	return best, bestD, true
}

func weightsOrEqual(w []float64, d int) []float64 {
	if w != nil {
		return w
	}
	eq := make([]float64, d)
	for i := range eq {
		eq[i] = 1
	}
	return eq
}

// InteriorNudge moves p a relative distance eps toward the centre of a
// rectangle of the set containing p, yielding a strictly interior point when
// p lies on the closed boundary of a non-degenerate rectangle. Points of the
// set not contained in any rectangle (which callers should not pass) are
// returned unchanged, as are points of degenerate rectangles.
func (s Set) InteriorNudge(p geom.Point, eps float64) geom.Point {
	var best geom.Rect
	found := false
	for _, r := range s {
		if r.Contains(p) && (!found || r.Area() > best.Area()) {
			best, found = r, true
		}
	}
	if !found || best.Area() == 0 {
		return p.Clone()
	}
	c := best.Center()
	out := make(geom.Point, len(p))
	for i := range p {
		out[i] = p[i] + eps*(c[i]-p[i])
	}
	return out
}

// Corners returns the deduplicated corner points of all rectangles in the
// set (Algorithm 4, step 10).
func (s Set) Corners() []geom.Point {
	seen := map[string]bool{}
	var out []geom.Point
	for _, r := range s {
		for _, c := range r.Corners() {
			key := c.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Area returns the exact d-dimensional volume of the union, computed by
// recursive coordinate compression: slice along dimension 0 at every
// rectangle boundary, recurse on the rectangles covering each slab.
func (s Set) Area() float64 {
	if len(s) == 0 {
		return 0
	}
	return unionVolume(s, 0)
}

func unionVolume(rects Set, dim int) float64 {
	d := rects[0].Dims()
	if dim == d-1 {
		// Base case: 1-d interval union length.
		type iv struct{ lo, hi float64 }
		ivs := make([]iv, 0, len(rects))
		for _, r := range rects {
			if r.Lo[dim] < r.Hi[dim] {
				ivs = append(ivs, iv{r.Lo[dim], r.Hi[dim]})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var total, end float64
		first := true
		for _, v := range ivs {
			if first || v.lo > end {
				total += v.hi - v.lo
				end = v.hi
				first = false
			} else if v.hi > end {
				total += v.hi - end
				end = v.hi
			}
		}
		return total
	}
	// Compress coordinates along dim.
	cutSet := map[float64]bool{}
	for _, r := range rects {
		cutSet[r.Lo[dim]] = true
		cutSet[r.Hi[dim]] = true
	}
	cuts := make([]float64, 0, len(cutSet))
	for v := range cutSet {
		cuts = append(cuts, v)
	}
	sort.Float64s(cuts)
	var total float64
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		var slab Set
		for _, r := range rects {
			if r.Lo[dim] <= lo && r.Hi[dim] >= hi {
				slab = append(slab, r)
			}
		}
		if len(slab) > 0 {
			total += (hi - lo) * unionVolume(slab, dim+1)
		}
	}
	return total
}

// Equivalent reports whether two sets cover regions of equal measure with an
// equal-measure intersection, i.e. they differ at most on a null set. This is
// the right notion for comparing alternative anti-DDR representations, whose
// rectangle lists may differ while describing the same region.
func Equivalent(a, b Set) bool {
	const eps = 1e-9
	aa, ab := a.Area(), b.Area()
	if diff := aa - ab; diff > eps || diff < -eps {
		return false
	}
	ai := a.IntersectSet(b).Area()
	return abs(ai-aa) <= eps*(1+abs(aa))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

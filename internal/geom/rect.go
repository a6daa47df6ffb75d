package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned hyper-rectangle [Lo, Hi]. A Rect is valid when
// Lo_i ≤ Hi_i in every dimension; degenerate rectangles (Lo_i == Hi_i) are
// valid and represent lower-dimensional slabs or points.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a Rect from two opposite corners, normalising the corner
// order per dimension.
func NewRect(a, b Point) Rect {
	lo := make(Point, len(a))
	hi := make(Point, len(a))
	for i := range a {
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dims returns the dimensionality of r.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// IsValid reports whether Lo ≤ Hi in every dimension.
func (r Rect) IsValid() bool {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return len(r.Lo) > 0
}

// Contains reports whether p lies in the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsStrict reports whether p lies in the open interior of r.
func (r Rect) ContainsStrict(p Point) bool {
	for i := range r.Lo {
		if p[i] <= r.Lo[i] || p[i] >= r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is entirely inside r (closed containment).
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point (closed
// rectangles, so touching boundaries intersect).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = math.Max(r.Lo[i], s.Lo[i])
		hi[i] = math.Min(r.Hi[i], s.Hi[i])
		if lo[i] > hi[i] {
			return Rect{}, false
		}
	}
	return Rect{Lo: lo, Hi: hi}, true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{Lo: r.Lo.Min(s.Lo), Hi: r.Hi.Max(s.Hi)}
}

// Expand grows r to include p, in place, and returns r.
func (r *Rect) Expand(p Point) {
	for i := range r.Lo {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// Area returns the d-dimensional volume of r. Degenerate rectangles have zero
// area.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of edge lengths of r (the R*-tree margin metric).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and s (zero when
// disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if lo >= hi {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Corners enumerates the 2^d corner points of r. For degenerate dimensions
// duplicate corners are still produced; callers that need distinct corners
// should deduplicate.
func (r Rect) Corners() []Point {
	d := r.Dims()
	n := 1 << d
	out := make([]Point, 0, n)
	for mask := 0; mask < n; mask++ {
		c := make(Point, d)
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				c[i] = r.Hi[i]
			} else {
				c[i] = r.Lo[i]
			}
		}
		out = append(out, c)
	}
	return out
}

// NearestPoint returns the point of the closed rectangle r nearest to p
// (coordinate-wise clamping). If p is inside r, p itself is returned.
func (r Rect) NearestPoint(p Point) Point {
	n := make(Point, len(p))
	for i := range p {
		n[i] = math.Min(math.Max(p[i], r.Lo[i]), r.Hi[i])
	}
	return n
}

// MinDistL1 returns the minimum Manhattan distance from p to any point in r
// (zero if p is inside).
func (r Rect) MinDistL1(p Point) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			s += r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			s += p[i] - r.Hi[i]
		}
	}
	return s
}

// MinDistL2 returns the minimum Euclidean distance from p to any point in r.
func (r Rect) MinDistL2(p Point) float64 {
	var s float64
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		s += d * d
	}
	return math.Sqrt(s)
}

// TransformMinMax returns the rectangle of transformed coordinates |c−x| for
// x ∈ r: per dimension the minimum and maximum absolute distance from c to
// the interval [Lo_i, Hi_i]. It is used for branch-and-bound pruning in the
// transformed (dynamic) space.
func (r Rect) TransformMinMax(c Point) Rect {
	dst := Rect{Lo: make(Point, len(c)), Hi: make(Point, len(c))}
	r.TransformMinMaxInto(c, dst)
	return dst
}

// TransformMinMaxInto is TransformMinMax writing into dst, whose Lo and Hi
// must each hold len(c) coordinates. It allocates nothing, so a
// branch-and-bound traversal can bound every box it visits in one pair of
// scratch buffers.
func (r Rect) TransformMinMaxInto(c Point, dst Rect) {
	for i := range c {
		// Both distances are non-negative (never -0), so plain comparisons
		// pick the same values math.Min and math.Max would.
		dLo := math.Abs(c[i] - r.Lo[i])
		dHi := math.Abs(c[i] - r.Hi[i])
		if dHi > dLo {
			dst.Hi[i] = dHi
		} else {
			dst.Hi[i] = dLo
		}
		switch {
		case c[i] >= r.Lo[i] && c[i] <= r.Hi[i]:
			dst.Lo[i] = 0
		case dLo < dHi:
			dst.Lo[i] = dLo
		default:
			dst.Lo[i] = dHi
		}
	}
}

// String renders the rectangle as "[Lo, Hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s, %s]", r.Lo, r.Hi)
}

// WindowRect returns the window-query rectangle centred at c with
// per-dimension half-extent |c_i − q_i| (Section II of the paper).
func WindowRect(c, q Point) Rect {
	lo := make(Point, len(c))
	hi := make(Point, len(c))
	for i := range c {
		w := math.Abs(c[i] - q[i])
		lo[i] = c[i] - w
		hi[i] = c[i] + w
	}
	return Rect{Lo: lo, Hi: hi}
}

// MBR returns the minimum bounding rectangle of the given points. It panics
// if pts is empty.
func MBR(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: MBR of empty point set")
	}
	r := PointRect(pts[0])
	for _, p := range pts[1:] {
		r.Expand(p)
	}
	return r
}

// Package geom provides the d-dimensional geometric primitives used by the
// skyline, reverse-skyline and why-not algorithms: points, hyper-rectangles,
// static and dynamic dominance tests, the absolute-distance transform that
// re-centres the space around a query point, and distance/normalisation
// helpers.
//
// Throughout the package a smaller coordinate is preferred in every dimension
// (the convention of Definition 1 in the paper).
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional space. The zero value is an empty
// (0-dimensional) point. Points are treated as immutable by the algorithms in
// this module; helpers that derive a new point always allocate.
type Point []float64

// NewPoint returns a copy of coords as a Point.
func NewPoint(coords ...float64) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Dims returns the dimensionality of p.
func (p Point) Dims() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether p and q differ by at most eps in every
// dimension.
func (p Point) ApproxEqual(q Point, eps float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > eps {
			return false
		}
	}
	return true
}

// L1 returns the Manhattan distance between p and q.
func (p Point) L1(q Point) float64 {
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s
}

// L2 returns the Euclidean distance between p and q.
func (p Point) L2(q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// WeightedL1 returns Σ_i w_i·|p_i − q_i|, the edit-distance cost of Eqn. (9)
// in the paper. w must have the same dimensionality as p and q.
func (p Point) WeightedL1(q Point, w []float64) float64 {
	var s float64
	for i := range p {
		s += w[i] * math.Abs(p[i]-q[i])
	}
	return s
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p − q.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns s·p.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = s * p[i]
	}
	return r
}

// Min returns the coordinate-wise minimum of p and q.
func (p Point) Min(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = math.Min(p[i], q[i])
	}
	return r
}

// Max returns the coordinate-wise maximum of p and q.
func (p Point) Max(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = math.Max(p[i], q[i])
	}
	return r
}

// String renders the point as "(x1, x2, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Dominates reports whether p statically dominates q (Definition 1): p is no
// worse in every dimension and strictly better in at least one. Smaller is
// better.
func (p Point) Dominates(q Point) bool {
	strict := false
	for i := range p {
		switch {
		case p[i] > q[i]:
			return false
		case p[i] < q[i]:
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether p is no worse than q in every dimension
// (ties allowed everywhere). Every point weakly dominates itself.
func (p Point) WeaklyDominates(q Point) bool {
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// Transform maps p into the space centred at origin c using the paper's
// mapping f_i(p_i) = |c_i − p_i| (Definition 2). The result is the
// per-dimension absolute distance vector from c to p.
func (p Point) Transform(c Point) Point {
	t := make(Point, len(p))
	p.TransformInto(c, t)
	return t
}

// TransformInto is Transform writing into dst, which must hold len(p)
// coordinates; it allocates nothing.
func (p Point) TransformInto(c, dst Point) {
	for i := range p {
		dst[i] = math.Abs(c[i] - p[i])
	}
}

// DynDominates reports whether a dynamically dominates b with respect to the
// centre point c (Definition 2): |c−a| dominates |c−b| in the transformed
// space.
func DynDominates(c, a, b Point) bool {
	strict := false
	for i := range c {
		da := math.Abs(c[i] - a[i])
		db := math.Abs(c[i] - b[i])
		switch {
		case da > db:
			return false
		case da < db:
			strict = true
		}
	}
	return strict
}

// DynWeaklyDominates reports whether |c−a| ≤ |c−b| in every dimension.
func DynWeaklyDominates(c, a, b Point) bool {
	for i := range c {
		if math.Abs(c[i]-a[i]) > math.Abs(c[i]-b[i]) {
			return false
		}
	}
	return true
}

// UnTransform maps a point t of the transformed space (absolute distances
// from c) back into the original space, choosing in each dimension the side
// of c on which toward lies. This is the minimal-distance pre-image of t with
// respect to toward: among the 2^d points x with |c−x| = t it returns the one
// closest to toward in every dimension independently.
func UnTransform(c, t, toward Point) Point {
	x := make(Point, len(c))
	for i := range c {
		if toward[i] >= c[i] {
			x[i] = c[i] + t[i]
		} else {
			x[i] = c[i] - t[i]
		}
	}
	return x
}

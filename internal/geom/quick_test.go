package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// qp draws a bounded random point so quick-generated values stay finite.
type qp struct{ X, Y float64 }

func (qp) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(qp{X: r.Float64()*200 - 100, Y: r.Float64()*200 - 100})
}

func (p qp) point() Point { return NewPoint(p.X, p.Y) }

var quickCfg = &quick.Config{MaxCount: 500}

// Dominance is a strict partial order: irreflexive, asymmetric, transitive.
func TestQuickDominancePartialOrder(t *testing.T) {
	asym := func(a, b qp) bool {
		pa, pb := a.point(), b.point()
		return !(pa.Dominates(pb) && pb.Dominates(pa)) && !pa.Dominates(pa)
	}
	if err := quick.Check(asym, quickCfg); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c qp) bool {
		pa, pb, pc := a.point(), b.point(), c.point()
		if pa.Dominates(pb) && pb.Dominates(pc) {
			return pa.Dominates(pc)
		}
		return true
	}
	if err := quick.Check(trans, quickCfg); err != nil {
		t.Error(err)
	}
}

// Dynamic dominance equals static dominance of the transforms.
func TestQuickDynEqualsTransformed(t *testing.T) {
	f := func(c, a, b qp) bool {
		pc, pa, pb := c.point(), a.point(), b.point()
		return DynDominates(pc, pa, pb) == pa.Transform(pc).Dominates(pb.Transform(pc))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// L1 is a metric: symmetry and triangle inequality.
func TestQuickL1Metric(t *testing.T) {
	f := func(a, b, c qp) bool {
		pa, pb, pc := a.point(), b.point(), c.point()
		if math.Abs(pa.L1(pb)-pb.L1(pa)) > 1e-9 {
			return false
		}
		return pa.L1(pc) <= pa.L1(pb)+pb.L1(pc)+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Rect intersection is commutative and contained in both operands.
func TestQuickRectIntersection(t *testing.T) {
	f := func(a1, a2, b1, b2 qp) bool {
		ra := NewRect(a1.point(), a2.point())
		rb := NewRect(b1.point(), b2.point())
		iab, okAB := ra.Intersect(rb)
		iba, okBA := rb.Intersect(ra)
		if okAB != okBA {
			return false
		}
		if !okAB {
			return !ra.Intersects(rb)
		}
		return iab.Lo.Equal(iba.Lo) && iab.Hi.Equal(iba.Hi) &&
			ra.ContainsRect(iab) && rb.ContainsRect(iab) && ra.Intersects(rb)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Union bounds both rects; area is superadditive vs the parts' overlap.
func TestQuickRectUnionArea(t *testing.T) {
	f := func(a1, a2, b1, b2 qp) bool {
		ra := NewRect(a1.point(), a2.point())
		rb := NewRect(b1.point(), b2.point())
		u := ra.Union(rb)
		if !u.ContainsRect(ra) || !u.ContainsRect(rb) {
			return false
		}
		return u.Area() >= ra.Area() && u.Area() >= rb.Area()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The window rectangle always has q on its corner and c at its centre, and
// contains exactly the points within |c−q| per dimension.
func TestQuickWindowRect(t *testing.T) {
	f := func(c, q, x qp) bool {
		pc, pq, px := c.point(), q.point(), x.point()
		w := WindowRect(pc, pq)
		// q sits on a window corner up to floating-point rounding
		// (c − |c−q| need not be bitwise q), so allow a tiny tolerance.
		if w.MinDistL1(pq) > 1e-9 || !w.Contains(pc) {
			return false
		}
		inWindow := w.Contains(px)
		within := math.Abs(pc[0]-px[0]) <= math.Abs(pc[0]-pq[0]) &&
			math.Abs(pc[1]-px[1]) <= math.Abs(pc[1]-pq[1])
		if inWindow != within {
			// Disagreements are only legitimate within rounding distance of
			// the window boundary.
			slack := math.Abs(math.Abs(pc[0]-px[0])-math.Abs(pc[0]-pq[0])) +
				math.Abs(math.Abs(pc[1]-px[1])-math.Abs(pc[1]-pq[1]))
			return slack < 1e-9
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// NearestPoint minimises L2 among rectangle corners and the clamped point.
func TestQuickNearestPoint(t *testing.T) {
	f := func(a1, a2, p qp) bool {
		r := NewRect(a1.point(), a2.point())
		pp := p.point()
		n := r.NearestPoint(pp)
		if !r.Contains(n) {
			return false
		}
		for _, c := range r.Corners() {
			if pp.L2(c) < pp.L2(n)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// UnTransform picks the pre-image on toward's side, which is never farther
// from toward than any other pre-image.
func TestQuickUnTransformOptimality(t *testing.T) {
	f := func(c, tRaw, w qp) bool {
		pc, pw := c.point(), w.point()
		tr := NewPoint(math.Abs(tRaw.X), math.Abs(tRaw.Y))
		x := UnTransform(pc, tr, pw)
		if !x.Transform(pc).ApproxEqual(tr, 1e-9) {
			return false
		}
		// Compare against all four mirror images.
		for _, sx := range []float64{-1, 1} {
			for _, sy := range []float64{-1, 1} {
				alt := NewPoint(pc[0]+sx*tr[0], pc[1]+sy*tr[1])
				if pw.L1(alt) < pw.L1(x)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

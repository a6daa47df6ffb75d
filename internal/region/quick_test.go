package region

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// qs generates a small random rectangle set in [0,20]².
type qs struct{ Rects [][4]float64 }

func (qs) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(6)
	rects := make([][4]float64, n)
	for i := range rects {
		x, y := r.Float64()*16, r.Float64()*16
		rects[i] = [4]float64{x, y, x + r.Float64()*4, y + r.Float64()*4}
	}
	return reflect.ValueOf(qs{Rects: rects})
}

func (s qs) set() Set {
	out := make(Set, len(s.Rects))
	for i, r := range s.Rects {
		out[i] = geom.NewRect(geom.NewPoint(r[0], r[1]), geom.NewPoint(r[2], r[3]))
	}
	return out
}

var quickCfg = &quick.Config{MaxCount: 200}

// Area is monotone: the union never shrinks when a rect is added, and is
// bounded by the sum of parts.
func TestQuickAreaMonotoneSubadditive(t *testing.T) {
	f := func(a qs) bool {
		s := a.set()
		var sum float64
		prev := 0.0
		for i := range s {
			part := s[:i+1].Area()
			if part+1e-9 < prev {
				return false
			}
			prev = part
			sum += s[i].Area()
		}
		return s.Area() <= sum+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Prune preserves both membership and measure.
func TestQuickPrunePreservesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(a qs) bool {
		s := a.set()
		p := s.Prune()
		if absf(s.Area()-p.Area()) > 1e-9 {
			return false
		}
		for i := 0; i < 50; i++ {
			pt := geom.NewPoint(rng.Float64()*20, rng.Float64()*20)
			if s.Contains(pt) != p.Contains(pt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Intersection membership is the conjunction of memberships (up to the
// closed boundary, which random probes miss almost surely).
func TestQuickIntersectMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(a, b qs) bool {
		sa, sb := a.set(), b.set()
		inter := sa.IntersectSet(sb)
		if inter.Area() > sa.Area()+1e-9 || inter.Area() > sb.Area()+1e-9 {
			return false
		}
		for i := 0; i < 50; i++ {
			pt := geom.NewPoint(rng.Float64()*20, rng.Float64()*20)
			if inter.Contains(pt) != (sa.Contains(pt) && sb.Contains(pt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The intersection of two unions is non-empty exactly when some pair of
// their rectangles overlaps.
func TestQuickOverlapsAgrees(t *testing.T) {
	f := func(a, b qs) bool {
		sa, sb := a.set(), b.set()
		overlaps := false
		for _, ra := range sa {
			for _, rb := range sb {
				overlaps = overlaps || ra.Intersects(rb)
			}
		}
		return overlaps == (len(sa.IntersectSet(sb)) > 0)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The nearest point of a set is inside the set and no member rect offers a
// closer one.
func TestQuickNearestPointOptimal(t *testing.T) {
	f := func(a qs, px, py float64) bool {
		s := a.set()
		p := geom.NewPoint(mod20(px), mod20(py))
		n, d, ok := s.NearestPoint(p, nil)
		if !ok {
			return len(s) == 0
		}
		if !s.Contains(n) {
			return false
		}
		for _, r := range s {
			if r.NearestPoint(p).L1(p) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Staircase corners: every corner is itself inside the closed complement and
// no corner dominates another.
func TestQuickStaircaseCornersAntichain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(a qs) bool {
		// Reuse the rect generator as a point generator.
		var sky []geom.Point
		for _, r := range a.Rects {
			sky = append(sky, geom.NewPoint(r[0]+0.1, r[1]+0.1))
		}
		u := geom.NewPoint(25, 25)
		corners := StaircaseCorners2D(sky, u)
		for i, ci := range corners {
			for j, cj := range corners {
				if i != j && ci.WeaklyDominates(cj) {
					return false // ci ≤ cj: ci is redundant
				}
			}
			// Closed-complement membership: ∀s ∃dim corner ≤ s.
			for _, s := range sky {
				if !(ci[0] <= s[0] || ci[1] <= s[1]) {
					return false
				}
			}
		}
		_ = rng
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func mod20(v float64) float64 {
	if v != v || v > 1e18 || v < -1e18 {
		return 0
	}
	m := v - float64(int64(v/20))*20
	if m < 0 {
		m += 20
	}
	return m
}

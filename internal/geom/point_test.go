package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPointCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	p := NewPoint(src...)
	src[0] = 99
	if p[0] != 1 {
		t.Fatalf("NewPoint must copy its input; got %v", p)
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{NewPoint(1, 2), NewPoint(1, 2), true},
		{NewPoint(1, 2), NewPoint(1, 3), false},
		{NewPoint(1, 2), NewPoint(1, 2, 3), false},
		{NewPoint(), NewPoint(), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	a := NewPoint(1, 2)
	b := NewPoint(1.0001, 1.9999)
	if !a.ApproxEqual(b, 1e-3) {
		t.Error("points within eps should be approx equal")
	}
	if a.ApproxEqual(b, 1e-6) {
		t.Error("points beyond eps should not be approx equal")
	}
	if a.ApproxEqual(NewPoint(1), 1) {
		t.Error("dimension mismatch should not be approx equal")
	}
}

func TestDistances(t *testing.T) {
	a := NewPoint(0, 0)
	b := NewPoint(3, 4)
	if got := a.L1(b); got != 7 {
		t.Errorf("L1 = %v, want 7", got)
	}
	if got := a.L2(b); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := a.WeightedL1(b, []float64{2, 0.5}); got != 8 {
		t.Errorf("WeightedL1 = %v, want 8", got)
	}
}

func TestArithmetic(t *testing.T) {
	a := NewPoint(1, 2)
	b := NewPoint(3, -1)
	if got := a.Add(b); !got.Equal(NewPoint(4, 1)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equal(NewPoint(-2, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Min(b); !got.Equal(NewPoint(1, -1)) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); !got.Equal(NewPoint(3, 2)) {
		t.Errorf("Max = %v", got)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b         Point
		dom, weakDom bool
	}{
		{NewPoint(1, 1), NewPoint(2, 2), true, true},
		{NewPoint(1, 2), NewPoint(2, 2), true, true},
		{NewPoint(2, 2), NewPoint(2, 2), false, true}, // equal: weak only
		{NewPoint(3, 1), NewPoint(2, 2), false, false},
		{NewPoint(2, 3), NewPoint(2, 2), false, false},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.dom {
			t.Errorf("%v Dominates %v = %v, want %v", c.a, c.b, got, c.dom)
		}
		if got := c.a.WeaklyDominates(c.b); got != c.weakDom {
			t.Errorf("%v WeaklyDominates %v = %v, want %v", c.a, c.b, got, c.weakDom)
		}
	}
}

func TestDominanceIrreflexiveAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := NewPoint(rng.Float64(), rng.Float64(), rng.Float64())
		b := NewPoint(rng.Float64(), rng.Float64(), rng.Float64())
		if a.Dominates(a) {
			t.Fatalf("dominance must be irreflexive: %v", a)
		}
		if a.Dominates(b) && b.Dominates(a) {
			t.Fatalf("dominance must be antisymmetric: %v %v", a, b)
		}
	}
}

func TestTransform(t *testing.T) {
	c := NewPoint(8.5, 55)
	p := NewPoint(7.5, 42)
	if got := p.Transform(c); !got.Equal(NewPoint(1, 13)) {
		t.Errorf("Transform = %v, want (1, 13)", got)
	}
}

// Paper Fig. 2(a): DSL(q) for q=(8.5,55) over pt1..pt8 minus pt2's role.
// p1=(5,30) must be dynamically dominated by p2=(7.5,42) w.r.t. q.
func TestDynDominatesPaperExample(t *testing.T) {
	q := NewPoint(8.5, 55)
	p1 := NewPoint(5, 30)
	p2 := NewPoint(7.5, 42)
	if !DynDominates(q, p2, p1) {
		t.Error("p2 should dynamically dominate p1 w.r.t. q (paper Fig. 2a)")
	}
	if DynDominates(q, p1, p2) {
		t.Error("p1 must not dynamically dominate p2 w.r.t. q")
	}
}

func TestDynDominatesTies(t *testing.T) {
	c := NewPoint(0, 0)
	a := NewPoint(1, 1)
	b := NewPoint(-1, 2) // |b| = (1,2)
	if !DynDominates(c, a, b) {
		t.Error("(1,1) should dyn-dominate (1,2) w.r.t. origin (tie in dim 0)")
	}
	mirror := NewPoint(-1, -1) // same transformed coords as a
	if DynDominates(c, a, mirror) || DynDominates(c, mirror, a) {
		t.Error("mirror-image points must not dominate each other")
	}
	if !DynWeaklyDominates(c, a, mirror) {
		t.Error("mirror-image points weakly dominate each other")
	}
}

func TestDynDominatesMatchesTransformedStaticDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		c := NewPoint(rng.Float64()*10, rng.Float64()*10)
		a := NewPoint(rng.Float64()*10, rng.Float64()*10)
		b := NewPoint(rng.Float64()*10, rng.Float64()*10)
		want := a.Transform(c).Dominates(b.Transform(c))
		if got := DynDominates(c, a, b); got != want {
			t.Fatalf("DynDominates(%v,%v,%v) = %v, want %v", c, a, b, got, want)
		}
	}
}

func TestUnTransform(t *testing.T) {
	c := NewPoint(5, 5)
	tr := NewPoint(2, 3)
	toward := NewPoint(10, 0)
	got := UnTransform(c, tr, toward)
	if !got.Equal(NewPoint(7, 2)) {
		t.Errorf("UnTransform = %v, want (7, 2)", got)
	}
	// Round trip: |c − UnTransform(c,t,·)| == t for any side choice.
	if !got.Transform(c).Equal(tr) {
		t.Errorf("round trip failed: %v", got.Transform(c))
	}
}

func TestUnTransformQuick(t *testing.T) {
	f := func(cx, cy, tx, ty, wx, wy float64) bool {
		c := NewPoint(norm(cx), norm(cy))
		tr := NewPoint(math.Abs(norm(tx)), math.Abs(norm(ty)))
		toward := NewPoint(norm(wx), norm(wy))
		x := UnTransform(c, tr, toward)
		return x.Transform(c).ApproxEqual(tr, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// norm maps arbitrary float64s (possibly NaN/Inf from quick) to a sane range.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestPointString(t *testing.T) {
	if got := NewPoint(1.5, -2).String(); got != "(1.5, -2)" {
		t.Errorf("String = %q", got)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalizerDegenerateDim(t *testing.T) {
	// Every point of the fitted box agrees in dimension 0, so that dimension
	// gets span 1 and a unit move there costs 1.
	n := NewNormalizerFromRect(rect(3, 1, 3, 2))
	if got := n.NormalizedL1(NewPoint(3, 1.5), NewPoint(4, 1.5), []float64{1, 0}); got != 1 {
		t.Errorf("degenerate dim should have span 1, got cost %v", got)
	}
}

func TestNormalizedL1EqualWeights(t *testing.T) {
	n := NewNormalizerFromRect(rect(0, 0, 10, 20))
	a := NewPoint(0, 0)
	b := NewPoint(5, 10)
	// (5/10)/2 + (10/20)/2 = 0.5
	if got := n.NormalizedL1(a, b, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("NormalizedL1 = %v, want 0.5", got)
	}
	// Explicit weights.
	if got := n.NormalizedL1(a, b, []float64{1, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("weighted NormalizedL1 = %v, want 0.5", got)
	}
}

func TestNormalizerBounds(t *testing.T) {
	// The fitted box maps onto the unit cube: its diagonal costs one unit
	// per dimension.
	b := rect(1, 2, 5, 8)
	n := NewNormalizerFromRect(b)
	if got := n.NormalizedL1(b.Lo, b.Hi, []float64{1, 1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("diagonal of the fitted box costs %v, want 2", got)
	}
}

// Property: normalised L1 cost is translation/scale invariant.
func TestNormalizedL1ScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		a := NewPoint(rng.Float64()*10, rng.Float64()*10)
		b := NewPoint(rng.Float64()*10, rng.Float64()*10)
		n1 := NewNormalizerFromRect(rect(0, 0, 10, 10))
		c1 := n1.NormalizedL1(a, b, nil)
		scale, shift := 7.0, 3.0
		a2 := NewPoint(a[0]*scale+shift, a[1]*scale+shift)
		b2 := NewPoint(b[0]*scale+shift, b[1]*scale+shift)
		n2 := NewNormalizerFromRect(rect(shift, shift, 10*scale+shift, 10*scale+shift))
		c2 := n2.NormalizedL1(a2, b2, nil)
		if math.Abs(c1-c2) > 1e-9 {
			t.Fatalf("cost not scale invariant: %v vs %v", c1, c2)
		}
	}
}

package geom

// Normalizer measures movement costs after min–max normalisation, the
// preprocessing step the paper applies before computing solution costs ("we
// compute the cost of a solution by first normalizing the point using
// min-max normalization", §VI.A). Only the spans matter: a difference of two
// points does not depend on the shift.
type Normalizer struct {
	span Point // span_i = max_i − min_i, 1 when degenerate
}

// NewNormalizerFromRect derives normalisation bounds from an explicit
// bounding rectangle. Dimensions in which the rectangle is flat get span 1,
// so costs there are raw distances.
func NewNormalizerFromRect(bounds Rect) *Normalizer {
	d := bounds.Dims()
	n := &Normalizer{span: make(Point, d)}
	for i := 0; i < d; i++ {
		s := bounds.Hi[i] - bounds.Lo[i]
		if s <= 0 {
			s = 1
		}
		n.span[i] = s
	}
	return n
}

// NormalizedL1 returns the weighted L1 distance between a and b after min–max
// normalisation: Σ_i w_i·|a_i − b_i|/span_i. This is exactly the solution
// cost of Eqn. (11) under the paper's experimental setup. w may be nil, in
// which case every dimension gets weight 1/d (equal weights summing to one,
// as in §VI.A).
func (n *Normalizer) NormalizedL1(a, b Point, w []float64) float64 {
	var s float64
	for i := range a {
		wi := 1.0 / float64(len(a))
		if w != nil {
			wi = w[i]
		}
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += wi * d / n.span[i]
	}
	return s
}

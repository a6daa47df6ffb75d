package region

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func rect(x1, y1, x2, y2 float64) geom.Rect {
	return geom.NewRect(geom.NewPoint(x1, y1), geom.NewPoint(x2, y2))
}

func TestSetContains(t *testing.T) {
	s := Set{rect(0, 0, 2, 2), rect(5, 5, 7, 7)}
	if !s.Contains(geom.NewPoint(1, 1)) || !s.Contains(geom.NewPoint(6, 6)) {
		t.Error("points in member rects must be contained")
	}
	if s.Contains(geom.NewPoint(3, 3)) {
		t.Error("gap point must not be contained")
	}
	if Set(nil).Contains(geom.NewPoint(0, 0)) {
		t.Error("empty set contains nothing")
	}
}

func TestPrune(t *testing.T) {
	s := Set{rect(0, 0, 10, 10), rect(1, 1, 5, 5), rect(20, 20, 30, 30), rect(0, 0, 10, 10)}
	p := s.Prune()
	if len(p) != 2 {
		t.Fatalf("Prune kept %d rects, want 2: %v", len(p), p)
	}
	if !Equivalent(s, p) {
		t.Fatal("pruning must preserve the region")
	}
}

// TestPruneOrderIndependent: rectangles whose areas tie, including
// zero-volume ones nested in each other and a positive rectangle one ulp
// inside another (whose float areas and margins tie too), prune to one list,
// the containment-maximal rectangles in the total order, whatever the input
// order.
func TestPruneOrderIndependent(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	in := Set{
		rect(0, 10, 0, 14),    // zero volume
		rect(0, 11, 0, 12),    // zero volume, inside the one above
		rect(0, 13, 0, 13),    // a point on it
		rect(0, 0, 1, 1),      // area 1
		rect(tiny, 0, 1, 1),   // one ulp inside it: area 1 and margin 2 too
		rect(5, 5, 6, 6),      // area 1, contains nothing and is not contained
		rect(-3, -3, -3, 100), // zero volume, larger margin than the first
	}
	want := Set{rect(0, 0, 1, 1), rect(5, 5, 6, 6), rect(-3, -3, -3, 100), rect(0, 10, 0, 14)}
	perm := make([]int, len(in))
	for i := range perm {
		perm[i] = i
	}
	n := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			n++
			s := make(Set, len(in))
			for i, j := range perm {
				s[i] = in[j]
			}
			if got := s.Prune(); !reflect.DeepEqual(got, want) {
				t.Fatalf("order %v: Prune = %v, want %v", perm, got, want)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	if n != 5040 {
		t.Fatalf("checked %d orders, want 7! = 5040", n)
	}
}

func TestIntersectSet(t *testing.T) {
	a := Set{rect(0, 0, 4, 4), rect(6, 0, 10, 4)}
	b := Set{rect(2, 2, 8, 8)}
	got := a.IntersectSet(b)
	want := Set{rect(2, 2, 4, 4), rect(6, 2, 8, 4)}
	if !Equivalent(got, want) {
		t.Fatalf("IntersectSet = %v, want %v", got, want)
	}
	far := Set{rect(100, 100, 101, 101)}
	if len(a.IntersectSet(far)) != 0 {
		t.Error("disjoint sets must not intersect")
	}
}

func TestAreaBasics(t *testing.T) {
	cases := []struct {
		s    Set
		want float64
	}{
		{nil, 0},
		{Set{rect(0, 0, 2, 3)}, 6},
		{Set{rect(0, 0, 2, 2), rect(4, 4, 6, 6)}, 8},  // disjoint
		{Set{rect(0, 0, 4, 4), rect(2, 2, 6, 6)}, 28}, // overlap 4
		{Set{rect(0, 0, 4, 4), rect(1, 1, 2, 2)}, 16}, // contained
		{Set{rect(0, 0, 4, 4), rect(4, 0, 8, 4)}, 32}, // touching
		{Set{rect(0, 0, 4, 4), rect(0, 0, 4, 4)}, 16}, // duplicate
		{Set{rect(0, 0, 0, 5), rect(3, 3, 3, 9)}, 0},  // degenerate
	}
	for i, c := range cases {
		if got := c.s.Area(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Area = %v, want %v", i, got, c.want)
		}
	}
}

func TestArea3D(t *testing.T) {
	a := geom.NewRect(geom.NewPoint(0, 0, 0), geom.NewPoint(2, 2, 2))
	b := geom.NewRect(geom.NewPoint(1, 1, 1), geom.NewPoint(3, 3, 3))
	s := Set{a, b}
	if got := s.Area(); math.Abs(got-15) > 1e-12 { // 8+8-1
		t.Fatalf("3-d union volume = %v, want 15", got)
	}
}

// Property: union area vs Monte Carlo estimate on random rect sets.
func TestAreaMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		var s Set
		for i := 0; i < 8; i++ {
			x, y := rng.Float64()*8, rng.Float64()*8
			s = append(s, rect(x, y, x+rng.Float64()*4, y+rng.Float64()*4))
		}
		exact := s.Area()
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			p := geom.NewPoint(rng.Float64()*12, rng.Float64()*12)
			if s.Contains(p) {
				hits++
			}
		}
		mc := float64(hits) / n * 144
		if math.Abs(mc-exact) > 0.05*144 {
			t.Fatalf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

func TestNearestPoint(t *testing.T) {
	s := Set{rect(0, 0, 2, 2), rect(10, 10, 12, 12)}
	p, d, ok := s.NearestPoint(geom.NewPoint(3, 1), nil)
	if !ok || !p.Equal(geom.NewPoint(2, 1)) || d != 1 {
		t.Fatalf("NearestPoint = %v d=%v ok=%v", p, d, ok)
	}
	// Inside a rect: distance zero, point itself.
	p, d, _ = s.NearestPoint(geom.NewPoint(11, 11), nil)
	if !p.Equal(geom.NewPoint(11, 11)) || d != 0 {
		t.Fatalf("inside NearestPoint = %v d=%v", p, d)
	}
	if _, _, ok := Set(nil).NearestPoint(geom.NewPoint(0, 0), nil); ok {
		t.Fatal("empty set has no nearest point")
	}
	// Weighted: heavy x-weight flips the winner.
	s2 := Set{rect(4, 0, 5, 1), rect(0, 4, 1, 5)}
	q := geom.NewPoint(0, 0)
	p, _, _ = s2.NearestPoint(q, []float64{10, 1})
	if !p.Equal(geom.NewPoint(0, 4)) {
		t.Fatalf("weighted NearestPoint = %v, want (0, 4)", p)
	}
}

func TestCorners(t *testing.T) {
	s := Set{rect(0, 0, 1, 1), rect(1, 1, 2, 2)}
	cs := s.Corners()
	if len(cs) != 7 { // 4 + 4 − shared (1,1)
		t.Fatalf("Corners returned %d points, want 7: %v", len(cs), cs)
	}
}

func TestStaircase2DSimple(t *testing.T) {
	// Two skyline points a=(1,5), b=(3,2), universe (10,10).
	tr := []geom.Point{geom.NewPoint(1, 5), geom.NewPoint(3, 2)}
	u := geom.NewPoint(10, 10)
	corners := StaircaseCorners2D(tr, u)
	want := map[string]bool{"(1, 10)": true, "(3, 5)": true, "(10, 2)": true}
	if len(corners) != 3 {
		t.Fatalf("corners = %v, want 3", corners)
	}
	for _, c := range corners {
		if !want[c.String()] {
			t.Fatalf("unexpected corner %v", c)
		}
	}
}

func TestStaircaseEmptySkyline(t *testing.T) {
	u := geom.NewPoint(7, 9)
	lub, err := localUpperBounds(nil, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, corners := range [][]geom.Point{
		StaircaseCorners2D(nil, u),
		StaircaseCornersGrid(nil, u),
		lub,
	} {
		if len(corners) != 1 || !corners[0].Equal(u) {
			t.Fatalf("empty skyline corners = %v, want [%v]", corners, u)
		}
	}
}

func TestStaircaseFiltersDominated(t *testing.T) {
	// (2,2) is dominated by (1,1); only (1,1) shapes the staircase.
	tr := []geom.Point{geom.NewPoint(1, 1), geom.NewPoint(2, 2)}
	u := geom.NewPoint(5, 5)
	corners := StaircaseCorners2D(tr, u)
	if len(corners) != 2 {
		t.Fatalf("corners = %v, want 2", corners)
	}
}

func TestStaircase2DMatchesGridRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		tr := make([]geom.Point, n)
		for i := range tr {
			tr[i] = geom.NewPoint(rng.Float64()*10, rng.Float64()*10)
		}
		u := geom.NewPoint(12, 12)
		fast := cornersToSet(StaircaseCorners2D(tr, u))
		grid := cornersToSet(StaircaseCornersGrid(tr, u))
		if !Equivalent(fast, grid) {
			t.Fatalf("trial %d: 2-d staircase %v != grid %v (points %v)", trial, fast, grid, tr)
		}
	}
}

func cornersToSet(corners []geom.Point) Set {
	var s Set
	origin := make(geom.Point, len(corners[0]))
	for _, m := range corners {
		s = append(s, geom.NewRect(origin, m))
	}
	return s
}

// Property: the staircase region contains exactly the points of the universe
// not strictly dominated by any skyline point (up to the closed boundary).
func TestStaircaseMembershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		tr := make([]geom.Point, n)
		for i := range tr {
			tr[i] = geom.NewPoint(1+rng.Float64()*8, 1+rng.Float64()*8)
		}
		u := geom.NewPoint(10, 10)
		s := cornersToSet(StaircaseCorners2D(tr, u))
		for probe := 0; probe < 200; probe++ {
			p := geom.NewPoint(rng.Float64()*10, rng.Float64()*10)
			dominated := false
			weaklyDominated := false
			for _, sk := range tr {
				if sk.Dominates(p) {
					dominated = true
				}
				if sk.WeaklyDominates(p) {
					weaklyDominated = true
				}
			}
			in := s.Contains(p)
			if !weaklyDominated && !in {
				t.Fatalf("trial %d: undominated point %v outside staircase", trial, p)
			}
			if dominated && in {
				// Allowed only on the measure-zero closed boundary: the point
				// must sit on a corner boundary.
				onBoundary := false
				for _, r := range s {
					if r.Contains(p) && !inInterior(r, p) {
						onBoundary = true
						break
					}
				}
				if !onBoundary {
					t.Fatalf("trial %d: dominated interior point %v inside staircase", trial, p)
				}
			}
		}
	}
}

func TestStaircaseGrid3D(t *testing.T) {
	tr := []geom.Point{
		geom.NewPoint(1, 5, 5),
		geom.NewPoint(5, 1, 5),
		geom.NewPoint(5, 5, 1),
	}
	u := geom.NewPoint(10, 10, 10)
	corners := StaircaseCornersGrid(tr, u)
	s := cornersToSet(corners)
	rng := rand.New(rand.NewSource(29))
	for probe := 0; probe < 500; probe++ {
		p := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		dominated := false
		for _, sk := range tr {
			if sk.Dominates(p) {
				dominated = true
				break
			}
		}
		if dominated == s.Contains(p) {
			// Tolerate closed-boundary coincidences only.
			weak := false
			for _, sk := range tr {
				if sk.WeaklyDominates(p) && !sk.Equal(p) {
					weak = true
				}
			}
			if dominated && s.Contains(p) && !weak {
				t.Fatalf("3-d staircase misclassifies %v", p)
			}
			if !dominated && !s.Contains(p) {
				t.Fatalf("3-d staircase misses undominated %v", p)
			}
		}
	}
}

// randomCornerInput draws up to 8 transformed DSL points in [0, u] at
// dimension d, u = (10, …, 10). On the integer grid (ints) coordinates take
// the values 0..10, so ties are common and 10 lies on u's bound; continuous
// draws also put a coordinate on u's bound now and then. A duplicate and a
// dominated copy of a drawn point are appended at random, and no points at
// all stand for an empty DSL.
func randomCornerInput(rng *rand.Rand, d int, ints bool) ([]geom.Point, geom.Point) {
	u := make(geom.Point, d)
	for i := range u {
		u[i] = 10
	}
	n := rng.Intn(9)
	var tr []geom.Point
	for len(tr) < n {
		p := make(geom.Point, d)
		for i := range p {
			if ints {
				p[i] = float64(rng.Intn(11))
			} else {
				p[i] = rng.Float64() * 10
			}
		}
		if rng.Intn(4) == 0 {
			i := rng.Intn(d)
			p[i] = u[i]
		}
		tr = append(tr, p)
	}
	if n > 0 && rng.Intn(2) == 0 {
		tr = append(tr, tr[rng.Intn(n)].Clone())
	}
	if n > 0 && rng.Intn(2) == 0 {
		p := tr[rng.Intn(n)].Clone()
		for i := range p {
			step := rng.Float64()
			if ints {
				step = float64(rng.Intn(3))
			}
			p[i] = math.Min(u[i], p[i]+step)
		}
		tr = append(tr, p)
	}
	return tr, u
}

// sameCorners reports whether a and b hold equal points in the same order.
func sameCorners(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameCornerSet reports whether a and b hold the same points in any order
// (the Fig. 10 staircase emits its corners sorted by dimension 0).
func sameCornerSet(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		found := false
		for _, q := range b {
			if p.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// The local-upper-bound construction must reproduce the grid reference
// exactly, order included, because the anti-DDR's rectangle list, the prune
// order and Algorithm 4's corner order all follow the corner order. At
// d = 2, where AntiDDR uses the Fig. 10 staircase, the corner sets agree.
func TestLocalUpperBoundsMatchGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{2, 3, 4} {
		for _, ints := range []bool{false, true} {
			for trial := 0; trial < 300; trial++ {
				tr, u := randomCornerInput(rng, d, ints)
				got, err := localUpperBounds(tr, u, nil)
				if err != nil {
					t.Fatal(err)
				}
				grid := StaircaseCornersGrid(tr, u)
				if !sameCorners(got, grid) {
					t.Fatalf("d=%d ints=%v trial %d: local upper bounds %v, grid %v (points %v)", d, ints, trial, got, grid, tr)
				}
				if d == 2 {
					if fig10 := StaircaseCorners2D(tr, u); !sameCornerSet(got, fig10) {
						t.Fatalf("ints=%v trial %d: local upper bounds %v, Fig. 10 staircase %v (points %v)", ints, trial, got, fig10, tr)
					}
				}
			}
		}
	}
}

// At d ≥ 3 a poll that fails on its first call stops AntiDDRChecked, which
// returns that error and no set. The corner construction itself polls once
// per DSL point and stops at the first failing poll.
func TestAntiDDRCheckedStopsAtFirstPoll(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	c := geom.NewPoint(5, 5, 5)
	dsl := []geom.Point{geom.NewPoint(1, 6, 5), geom.NewPoint(6, 2, 7), geom.NewPoint(4, 4, 1)}
	universe := geom.NewRect(geom.NewPoint(0, 0, 0), geom.NewPoint(10, 10, 10))
	set, err := AntiDDRChecked(c, dsl, universe, nil, func() error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || set != nil || calls != 1 {
		t.Fatalf("AntiDDRChecked = %v, %v after %d polls; want nil, %v after 1", set, err, calls, stop)
	}
	calls = 0
	tr := transformAll(dsl, c)
	corners, err := localUpperBounds(tr, universe.TransformMinMax(c).Hi, func() error {
		calls++
		if calls == len(tr) {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || corners != nil || calls != len(tr) {
		t.Fatalf("localUpperBounds = %v, %v after %d polls; want nil, %v after %d", corners, err, calls, stop, len(tr))
	}
}

func transformAll(pts []geom.Point, c geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Transform(c)
	}
	return out
}

// Paper §V.B worked example: the anti-DDR of c7 = (26, 70) over the Fig. 1
// products (excluding c7's own record) is the region covered by the four
// rectangles r1..r4 listed in the paper.
func TestAntiDDRPaperC7(t *testing.T) {
	c7 := geom.NewPoint(26, 70)
	products := []geom.Point{
		geom.NewPoint(5, 30), geom.NewPoint(7.5, 42), geom.NewPoint(2.5, 70),
		geom.NewPoint(7.5, 90), geom.NewPoint(24, 20), geom.NewPoint(20, 50),
		geom.NewPoint(16, 80),
	}
	// DSL(c7) computed over those products: {p3, p5, p6, p8} (transformed
	// staircase (23.5,0),(2,50),(6,20),(10,10)).
	dsl := []geom.Point{
		geom.NewPoint(2.5, 70), geom.NewPoint(24, 20),
		geom.NewPoint(20, 50), geom.NewPoint(16, 80),
	}
	universe := geom.MBR(append(products, geom.NewPoint(26, 70)))
	got := AntiDDR(c7, dsl, universe)
	want := Set{
		rect(2.5, 60, 49.5, 80),
		rect(16, 50, 36, 90),
		rect(20, 20, 32, 120),
		rect(24, 50, 28, 90),
	}
	if !Equivalent(got, want) {
		t.Fatalf("anti-DDR(c7) = %v (area %v), want %v (area %v)",
			got, got.Area(), want, want.Area())
	}
	// q = (8.5, 55) must lie outside anti-DDR(c7): c7 is a why-not point.
	if got.Contains(geom.NewPoint(8.5, 55)) {
		t.Fatal("q must not be inside anti-DDR(c7)")
	}
	// And c7 itself is always inside its own anti-DDR.
	if !got.Contains(c7) {
		t.Fatal("c7 must be inside its own anti-DDR")
	}
}

func TestEquivalent(t *testing.T) {
	a := Set{rect(0, 0, 4, 4)}
	b := Set{rect(0, 0, 2, 4), rect(2, 0, 4, 4)} // same region, split
	if !Equivalent(a, b) {
		t.Error("split representation must be equivalent")
	}
	c := Set{rect(0, 0, 4, 4.0001)}
	if Equivalent(a, c) {
		t.Error("different regions must not be equivalent")
	}
	// Equal area, different place.
	d := Set{rect(10, 10, 14, 14)}
	if Equivalent(a, d) {
		t.Error("same-area disjoint regions must not be equivalent")
	}
}

func TestIsEmptyAndIntersectRect(t *testing.T) {
	if !(Set{}).IsEmpty() || (Set{rect(0, 0, 1, 1)}).IsEmpty() {
		t.Fatal("IsEmpty basics")
	}
	s := Set{rect(0, 0, 4, 4), rect(6, 6, 9, 9)}
	got := s.IntersectRect(rect(3, 3, 7, 7))
	want := Set{rect(3, 3, 4, 4), rect(6, 6, 7, 7)}
	if !Equivalent(got, want) {
		t.Fatalf("IntersectRect = %v", got)
	}
}

// inInterior reports whether p lies in the open interior of r.
func inInterior(r geom.Rect, p geom.Point) bool {
	for i := range r.Lo {
		if p[i] <= r.Lo[i] || p[i] >= r.Hi[i] {
			return false
		}
	}
	return true
}

func TestInteriorNudge(t *testing.T) {
	s := Set{rect(0, 0, 10, 10), rect(20, 20, 21, 21)}
	// A corner point moves strictly inside the containing rect.
	p := geom.NewPoint(0, 0)
	n := s.InteriorNudge(p, 0.1)
	if !inInterior(s[0], n) {
		t.Fatalf("nudged point %v not strictly inside", n)
	}
	// The larger containing rect wins when several contain p.
	overlap := Set{rect(0, 0, 2, 2), rect(0, 0, 10, 10)}
	n2 := overlap.InteriorNudge(geom.NewPoint(0, 0), 0.5)
	if !n2.ApproxEqual(geom.NewPoint(2.5, 2.5), 1e-9) {
		t.Fatalf("nudge toward larger rect centre = %v", n2)
	}
	// Degenerate-only containment returns the point unchanged.
	line := Set{geom.NewRect(geom.NewPoint(5, 0), geom.NewPoint(5, 9))}
	if got := line.InteriorNudge(geom.NewPoint(5, 3), 0.1); !got.Equal(geom.NewPoint(5, 3)) {
		t.Fatalf("degenerate nudge = %v", got)
	}
	// Points outside every rect come back unchanged.
	if got := s.InteriorNudge(geom.NewPoint(99, 99), 0.1); !got.Equal(geom.NewPoint(99, 99)) {
		t.Fatalf("outside nudge = %v", got)
	}
}

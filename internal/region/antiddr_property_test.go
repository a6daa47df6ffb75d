package region_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/region"
	"repro/internal/skyline"
)

// randomPoint draws a point uniformly from [0, 100]^d.
func randomPoint(rng *rand.Rand, d int) geom.Point {
	p := make(geom.Point, d)
	for j := range p {
		p[j] = rng.Float64() * 100
	}
	return p
}

func randomProducts(rng *rand.Rand, n, d int) []oracle.Item {
	out := make([]oracle.Item, n)
	for i := range out {
		out[i] = oracle.Item{ID: i, Point: randomPoint(rng, d)}
	}
	return out
}

func points(items []oracle.Item) []geom.Point {
	out := make([]geom.Point, len(items))
	for i, it := range items {
		out[i] = it.Point
	}
	return out
}

// Membership property for AntiDDR against the raw definition: a point x of
// the universe is in the anti-DDR of c iff no product dynamically dominates
// x with respect to c. Random probes miss the closed boundary, where the two
// may disagree, almost surely, so any disagreement fails. At d ≥ 3 the
// corners come from the local-upper-bound construction.
func TestAntiDDRMembershipProperty(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31 + int64(d)))
			for trial := 0; trial < 20; trial++ {
				products := randomProducts(rng, 60, d)
				c := randomPoint(rng, d)
				universe := geom.MBR(points(products))
				dsl := oracle.DynamicSkyline(products, c, oracle.NoExclude)
				add := region.AntiDDR(c, points(dsl), universe)
				for probe := 0; probe < 200; probe++ {
					x := randomPoint(rng, d)
					if !universe.Contains(x) {
						continue
					}
					dominated := false
					for _, p := range products {
						if geom.DynDominates(c, p.Point, x) {
							dominated = true
							break
						}
					}
					if in := add.Contains(x); in == dominated {
						t.Fatalf("trial %d: %v dominated=%v but in anti-DDR of %v = %v", trial, x, dominated, c, in)
					}
				}
			}
		})
	}
}

// The §VI.B.1 approximate anti-DDR, built from the DSL as the approximate
// store samples it (skyline.ApproxDynamic), is a subset of the exact one at
// every dimensionality; the engine's Approx-MWQ rung relies on that to never
// lose an existing customer.
func TestApproxAntiDDRIsSubset(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(37 + int64(d)))
			for trial := 0; trial < 20; trial++ {
				products := randomProducts(rng, 40, d)
				c := randomPoint(rng, d)
				universe := geom.MBR(points(products))
				dsl := oracle.DynamicSkyline(products, c, oracle.NoExclude)
				exact := region.AntiDDR(c, points(dsl), universe)
				sampled := skyline.ApproxDynamic(dsl, c, 4, 0)
				u := universe.TransformMinMax(c).Hi
				approx := region.AntiDDRFromCorners(c, region.ApproxAntiDDRCorners(c, points(sampled), u, 0))
				// Subset check: approx ∩ exact must equal approx (by measure).
				inter := approx.IntersectSet(exact)
				if math.Abs(inter.Area()-approx.Area()) > 1e-6*(1+approx.Area()) {
					t.Fatalf("trial %d: approx anti-DDR not a subset (|DSL| %d, approx %v, inter %v)",
						trial, len(dsl), approx.Area(), inter.Area())
				}
			}
		})
	}
}

package oracle_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// The differential suite runs every optimised query path — branch-and-bound
// traversals, the BBRS pipeline, DBs built at several worker counts and the
// memoised caches — against the package's brute-force oracles on seeded
// UN/CO/AC datasets in 2, 3 and 4 dimensions.

var kinds = []struct {
	name string
	kind datagen.Kind
}{
	{"UN", datagen.Uniform},
	{"CO", datagen.Correlated},
	{"AC", datagen.AntiCorrelated},
}

var dims = []int{2, 3, 4}

// fixture is one seeded bichromatic configuration: products indexed in a DB,
// customers with a disjoint ID range, and a deterministic RNG for queries.
type fixture struct {
	products  []oracle.Item
	customers []oracle.Item
	db        *rskyline.DB
	rng       *rand.Rand
}

func newFixture(kind datagen.Kind, d, nProducts, nCustomers int, seed int64) fixture {
	products := datagen.Generate(kind, nProducts, d, seed)
	customers := datagen.Generate(kind, nCustomers, d, seed+1)
	for i := range customers {
		customers[i].ID += 10_000 // disjoint from product IDs
	}
	return fixture{
		products:  products,
		customers: customers,
		db:        rskyline.NewDB(d, products, rtree.Config{}),
		rng:       rand.New(rand.NewSource(seed + 2)),
	}
}

// bg is the context of every call that is not about cancellation.
var bg = context.Background()

// must unwraps the result of a ctx-form call under bg, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// parallelCounts are the worker counts the fanned-out paths are compared at
// against the sequential fixture DB.
func parallelCounts() []int { return []int{2, 4, runtime.GOMAXPROCS(0)} }

// dbAt indexes the fixture's products in a fresh DB whose per-customer loops
// run on the given number of workers.
func (f fixture) dbAt(workers int) *rskyline.DB {
	db := rskyline.NewDB(f.db.Dims(), f.products, rtree.Config{})
	db.SetWorkers(workers)
	return db
}

// queryPoint draws a continuous position inside the product universe;
// continuous draws avoid the measure-zero boundary ties the closed-set
// constructions resolve differently from the strict-dominance oracles.
func (f fixture) queryPoint() geom.Point {
	u, _ := f.db.Universe()
	p := make(geom.Point, len(u.Lo))
	for j := range p {
		p[j] = u.Lo[j] + f.rng.Float64()*(u.Hi[j]-u.Lo[j])
	}
	return p
}

func idSet(items []oracle.Item) map[int]bool {
	m := make(map[int]bool, len(items))
	for _, it := range items {
		m[it.ID] = true
	}
	return m
}

func sameIDs(t *testing.T, label string, got, want []oracle.Item) {
	t.Helper()
	g, w := idSet(got), idSet(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d members, oracle says %d (got %v, want %v)", label, len(g), len(w), g, w)
	}
	for id := range w {
		if !g[id] {
			t.Fatalf("%s: oracle member %d missing from result", label, id)
		}
	}
}

func forEachConfig(t *testing.T, fn func(t *testing.T, f fixture)) {
	for _, k := range kinds {
		for _, d := range dims {
			if d == 4 && testing.Short() {
				// The d=4 configs dominate the suite's runtime (2^d orthant
				// fan-out in every pass) while the algorithms branch on
				// dimension nowhere beyond loops and the anti-DDR's 2-d
				// staircase; -short keeps d ≤ 3.
				continue
			}
			k, d := k, d
			t.Run(fmt.Sprintf("%s/d=%d", k.name, d), func(t *testing.T) {
				t.Parallel()
				fn(t, newFixture(k.kind, d, 60, 30, int64(1000*d)+int64(k.kind)))
			})
		}
	}
}

func TestDynamicSkylineAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		for i := 0; i < 8; i++ {
			c := f.customers[f.rng.Intn(len(f.customers))]
			got := f.db.DynamicSkylineExcluding(c.Point, oracle.NoExclude)
			want := oracle.DynamicSkyline(f.products, c.Point, oracle.NoExclude)
			sameIDs(t, "DSL (BBS)", got, want)

			// With the monochromatic exclusion of an arbitrary product record.
			ex := f.products[f.rng.Intn(len(f.products))].ID
			got = f.db.DynamicSkylineExcluding(c.Point, ex)
			want = oracle.DynamicSkyline(f.products, c.Point, ex)
			sameIDs(t, "DSL excluding", got, want)
		}
	})
}

func TestDynamicSkylineCachedAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		f.db.EnableDSLCache(64)
		// Two passes: the second is served from the cache and must agree too.
		for pass := 0; pass < 2; pass++ {
			for _, c := range f.customers[:10] {
				got, err := f.db.DynamicSkylineOfCtx(bg, c, oracle.NoExclude)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("cached DSL pass %d", pass),
					got, oracle.DynamicSkyline(f.products, c.Point, oracle.NoExclude))
			}
		}
		if f.db.DSLCacheStats().Hits == 0 {
			t.Fatal("second pass did not hit the DSL cache")
		}
	})
}

func TestReverseSkylinePathsAgreeWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		var pdbs []*rskyline.DB
		for _, w := range parallelCounts() {
			pdbs = append(pdbs, f.dbAt(w))
		}
		for i := 0; i < 4; i++ {
			q := f.queryPoint()
			want := oracle.ReverseSkyline(f.products, f.customers, q)

			sameIDs(t, "RSL filtered", f.db.ReverseSkylineFiltered(f.customers, q), want)

			for _, db := range pdbs {
				sameIDs(t, fmt.Sprintf("RSL filtered parallel w=%d", db.Workers()), db.ReverseSkylineFiltered(f.customers, q), want)
			}
		}
	})
}

// TestBBRSAgreesWithOracle exercises the monochromatic pipeline: the
// customers are the product records themselves, each invisible to its own
// window queries.
func TestBBRSAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		var pdbs []*rskyline.DB
		for _, w := range parallelCounts() {
			pdbs = append(pdbs, f.dbAt(w))
		}
		for i := 0; i < 4; i++ {
			q := f.queryPoint()
			want := oracle.ReverseSkyline(f.products, f.products, q)
			sameIDs(t, "BBRS", must(f.db.ReverseSkylineBBRSCtx(bg, q)), want)
			for _, db := range pdbs {
				sameIDs(t, fmt.Sprintf("BBRS parallel w=%d", db.Workers()), must(db.ReverseSkylineBBRSCtx(bg, q)), want)
			}
		}
	})
}

// gridItems draws n points of the integer grid {0..9}^d, IDs from idBase.
func gridItems(rng *rand.Rand, n, d, idBase int) []oracle.Item {
	items := make([]oracle.Item, n)
	for i := range items {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(10))
		}
		items[i] = oracle.Item{ID: idBase + i, Point: p}
	}
	return items
}

// TestReverseSkylineGridTiesAgreeWithOracle runs the candidate-filtered and
// BBRS pipelines on the integer grid {0..9}^d with q on a product: many
// products and customers lie on q's axes, some points are exact duplicates
// (within the products, and customers on products), and a product lies
// exactly at q. The continuous fixtures never produce these ties, and the
// candidate traversal files on-axis skyline members under several orthants.
func TestReverseSkylineGridTiesAgreeWithOracle(t *testing.T) {
	for _, d := range dims {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(int64(100*d) + seed))
			products := gridItems(rng, 60, d, 0)
			for i := 0; i < 5; i++ {
				products = append(products, oracle.Item{ID: 60 + i, Point: products[i].Point.Clone()})
			}
			customers := gridItems(rng, 30, d, 10_000)
			for i := 0; i < 5; i++ {
				customers[i].Point = products[10+i].Point.Clone()
			}
			q := products[rng.Intn(len(products))].Point.Clone()
			db := rskyline.NewDB(d, products, rtree.Config{})

			label := fmt.Sprintf("d=%d seed=%d q=%v", d, seed, q)
			mono := oracle.ReverseSkyline(products, products, q)
			sameIDs(t, label+": mono filtered", db.ReverseSkylineFiltered(products, q), mono)
			sameIDs(t, label+": BBRS", must(db.ReverseSkylineBBRSCtx(bg, q)), mono)
			sameIDs(t, label+": bichromatic filtered", db.ReverseSkylineFiltered(customers, q),
				oracle.ReverseSkyline(products, customers, q))
		}
	}
}

// TestSafeRegionMembershipAgreesWithOracle compares constructed safe regions
// — sequential, on DBs built at several worker counts, and cached — against
// the semantic oracle (every RSL member retained) at sampled continuous
// positions, and checks the three constructions build the same rectangle
// list, in the same order. Exact equality is the stronger check (it implies
// region.Equivalent) and the cheaper one: at d = 4 the union-volume
// computation Equivalent needs costs far more than the constructions.
func TestSafeRegionMembershipAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		eng := whynot.NewEngine(f.db, false)
		var peng []*whynot.Engine
		for _, w := range parallelCounts() {
			peng = append(peng, whynot.NewEngine(f.dbAt(w), false))
		}
		cachedDB := rskyline.NewDB(f.db.Dims(), f.products, rtree.Config{})
		cachedDB.EnableDSLCache(64)
		cachedEng := whynot.NewEngine(cachedDB, false)
		cachedEng.EnableAntiDDRCache(64)

		// Exact safe regions grow combinatorially with |RSL| and with
		// dimensionality (each anti-DDR is a d-dimensional staircase of
		// rectangles), so the member cap shrinks as d grows. Capping keeps
		// the oracle comparison exact: SR over a subset is the intersection
		// over that subset.
		cap := map[int]int{2: 6, 3: 4, 4: 2}[f.db.Dims()]
		for i := 0; i < 2; i++ {
			q := f.queryPoint()
			rsl := oracle.ReverseSkyline(f.products, f.customers, q)
			if len(rsl) > cap {
				rsl = rsl[:cap]
			}

			seq := eng.SafeRegion(q, rsl)
			for _, pe := range peng {
				par, err := pe.SafeRegionCtx(context.Background(), q, rsl)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("parallel (w=%d) safe region differs from sequential (q=%v, |rsl|=%d)", pe.DB.Workers(), q, len(rsl))
				}
			}
			// Warm the caches with a first construction, then use the cached
			// result, which must still agree.
			cachedEng.SafeRegion(q, rsl)
			cached := cachedEng.SafeRegion(q, rsl)

			if !reflect.DeepEqual(seq, cached) {
				t.Fatalf("cached safe region differs from sequential (q=%v, |rsl|=%d)", q, len(rsl))
			}

			for s := 0; s < 120; s++ {
				x := f.queryPoint()
				got := seq.Contains(x)
				want := oracle.SafeAt(f.products, rsl, x)
				if got != want {
					t.Fatalf("safe-region membership at %v: constructed=%v oracle=%v (q=%v)", x, got, want, q)
				}
			}
		}
		if cachedEng.AntiDDRCacheStats().Hits == 0 {
			t.Fatal("repeated construction did not hit the anti-DDR cache")
		}
	})
}

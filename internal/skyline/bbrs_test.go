package skyline

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

func TestGlobalSkylineBBSMatchesScan(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for seed := int64(0); seed < 6; seed++ {
			items := randItems(600, dims, seed+700)
			tr := rtree.BulkLoad(dims, items, rtree.Config{})
			rng := rand.New(rand.NewSource(seed + 800))
			for probe := 0; probe < 5; probe++ {
				q := make(geom.Point, dims)
				for d := range q {
					q[d] = rng.Float64() * 100
				}
				want := idSet(naiveGlobalSkyline(items, q))
				gs, _ := GlobalSkylineBBSChecked(nil, new(obs.Counts), tr, q)
				got := idSet(gs.Members)
				if len(got) != len(want) {
					t.Fatalf("dims=%d seed=%d: BBS=%d scan=%d", dims, seed, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("dims=%d seed=%d: missing %d", dims, seed, id)
					}
				}
				// The filter's test: an item is dominated by a member other
				// than itself exactly when it is not a member.
				for _, it := range items {
					if dominated, _ := gs.Dominates(it); dominated == want[it.ID] {
						t.Fatalf("dims=%d seed=%d: Dominates(%d) = %v, member = %v", dims, seed, it.ID, dominated, want[it.ID])
					}
				}
			}
		}
	}
}

func TestGlobalSkylineBBSQueryOnDataPoint(t *testing.T) {
	// q placed exactly on a data point: that point transforms to the origin
	// and is in every orthant's skyline; axis-straddling must stay sound.
	items := randItems(300, 2, 900)
	tr := rtree.BulkLoad(2, items, rtree.Config{})
	q := items[42].Point
	want := idSet(naiveGlobalSkyline(items, q))
	got := idSet(globalSkylineBBS(tr, q))
	if len(got) != len(want) {
		t.Fatalf("BBS=%d scan=%d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing %d", id)
		}
	}
	if !got[42] {
		t.Fatal("the point at q itself must be a global skyline member")
	}
}

func TestGlobalSkylineBBSAxisTies(t *testing.T) {
	// Points sharing a coordinate with q exercise the zero-offset
	// compatibility rule.
	q := geom.NewPoint(5, 5)
	items := []Item{
		{ID: 1, Point: geom.NewPoint(5, 6)},
		{ID: 2, Point: geom.NewPoint(4, 7)},
		{ID: 3, Point: geom.NewPoint(6, 7)},
		{ID: 4, Point: geom.NewPoint(3, 5)},
		{ID: 5, Point: geom.NewPoint(5, 4)},
	}
	tr := rtree.BulkLoad(2, items, rtree.Config{})
	want := idSet(naiveGlobalSkyline(items, q))
	got := idSet(globalSkylineBBS(tr, q))
	if len(got) != len(want) {
		t.Fatalf("BBS=%v scan=%v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing %d", id)
		}
	}
}

// GlobalSkylineBBS and DynamicBBS are access-efficient: they touch far fewer
// index nodes than a full traversal (the I/O-optimality story of Papadias
// et al.).
func TestBranchAndBoundAccessEfficiency(t *testing.T) {
	items := randItems(20000, 2, 950)
	tr := rtree.BulkLoad(2, items, rtree.Config{})
	total := tr.Stats().Nodes

	q := geom.NewPoint(500, 500)
	tr.ResetAccesses()
	globalSkylineBBS(tr, q)
	gsb := tr.Accesses()
	if gsb <= 0 || gsb >= total {
		t.Errorf("GlobalSkylineBBS touched %d of %d nodes", gsb, total)
	}

	tr.ResetAccesses()
	dynamicBBS(tr, q)
	dsl := tr.Accesses()
	if dsl <= 0 || dsl > total/3 {
		t.Errorf("DynamicBBS touched %d of %d nodes; expected a small fraction", dsl, total)
	}
}

// GlobalSkylineBBSChecked counts the items it discards by dominance into the
// pruned-entries cost counter: some on any sizeable input, and never more
// than the non-members.
func TestGlobalSkylineBBSCountsDiscards(t *testing.T) {
	items := randItems(20000, 2, 951)
	tr := rtree.BulkLoad(2, items, rtree.Config{})
	var c obs.Counts
	gs, err := GlobalSkylineBBSChecked(nil, &c, tr, geom.NewPoint(50, 50))
	if err != nil {
		t.Fatal(err)
	}
	sky := gs.Members
	got := c.PrunedEntries
	if got == 0 || got > uint64(len(items)-len(sky)) {
		t.Fatalf("counted %d discarded items; want 1..%d", got, len(items)-len(sky))
	}
}

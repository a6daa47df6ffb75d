package server

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"

	"repro"
	"repro/internal/dataset"
	"repro/internal/obs/explain"
)

// DatasetSpec names a dataset source for the initial load and for hot-swap
// reloads: a CSV path or a synthetic-generation spec, optionally with an
// approximate store precomputed on top.
type DatasetSpec struct {
	// Path is a CSV file (id,dim0,dim1,...); empty means Generate.
	Path string
	// Generate builds a synthetic dataset when Path is empty.
	Generate *GenerateSpec
	// BuildStore precomputes the approximate safe-region store over all
	// customers, enabling the ladder's approx rung for this snapshot.
	BuildStore bool
	// K is the approximate-store sampling constant (default 10).
	K int
}

// Snapshot is one fully built, immutable serving state: the indexed DB, the
// item list it was built from, an ID → position index over that list, and
// optionally the approximate store. Snapshots are swapped behind an atomic pointer; a request loads the
// pointer once and sees one consistent dataset for its whole lifetime, no
// matter how many reloads land mid-flight.
type Snapshot struct {
	DB    *repro.DB
	Items []repro.Item
	Store *repro.ApproxStore
	// Name describes the dataset source (path or generator spec).
	Name string
	// Seq is the monotone swap sequence number (1 = boot snapshot).
	Seq uint64

	pos map[int]int // item ID → its index in Items
}

// Customer looks a dataset item up by ID.
func (s *Snapshot) Customer(id int) (repro.Item, bool) {
	i, ok := s.pos[id]
	if !ok {
		return repro.Item{}, false
	}
	return s.Items[i], true
}

// ReverseSkyline computes RSL(q) over the snapshot's customers in one "rsl"
// phase (trace span, plan node and pprof label). The customers are the
// snapshot's own products, so the monochromatic BBRS pipeline returns
// exactly the members the per-customer filter would over Items, after
// testing only the global skyline of q; the members come back in snapshot
// order, as the filter returns them, so response bodies and the RSL handed
// to the degradation ladder do not depend on the traversal.
func (s *Snapshot) ReverseSkyline(ctx context.Context, q repro.Point) ([]repro.Item, error) {
	ctx, sp := explain.Phase(ctx, "rsl", explain.RuleNone)
	defer sp.End()
	sp.SetIn(len(s.Items))
	rsl, err := s.DB.ReverseSkylineBBRSContext(ctx, q)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(rsl, func(a, b repro.Item) int { return cmp.Compare(s.pos[a.ID], s.pos[b.ID]) })
	sp.SetOut(len(rsl))
	return rsl, nil
}

// loadItems resolves a DatasetSpec to its item list and display name.
func loadItems(spec DatasetSpec) ([]repro.Item, string, error) {
	var (
		items []repro.Item
		name  string
	)
	switch {
	case spec.Path != "":
		f, err := os.Open(spec.Path)
		if err != nil {
			return nil, "", err
		}
		d, err := dataset.ReadCSV(spec.Path, f)
		f.Close()
		if err != nil {
			return nil, "", err
		}
		items = d.Items
		name = spec.Path
	case spec.Generate != nil:
		g := spec.Generate
		var err error
		items, err = repro.GenerateDataset(g.Kind, g.N, g.Dims, g.Seed)
		if err != nil {
			return nil, "", err
		}
		name = fmt.Sprintf("%s(n=%d,dims=%d,seed=%d)", g.Kind, g.N, g.Dims, g.Seed)
	default:
		return nil, "", fmt.Errorf("server: dataset spec has neither path nor generator")
	}
	if len(items) == 0 {
		return nil, "", fmt.Errorf("server: dataset %s is empty", name)
	}
	return items, name, nil
}

// snapshotFromItems bulk-loads an item list into a fresh immutable snapshot,
// optionally precomputing the approximate store (k ≤ 0 skips the store; the
// mutation path passes k ≤ 0 because a store sampled from the pre-mutation
// dataset would answer for items that no longer exist). Seq is left zero —
// the publisher assigns it under the lock that orders swaps.
func snapshotFromItems(ctx context.Context, items []repro.Item, name string, buildStore bool, k int, opts repro.DBOptions) (*Snapshot, error) {
	db := repro.NewDBWithOptions(items[0].Point.Dims(), items, opts)
	snap := &Snapshot{
		DB:    db,
		Items: items,
		Name:  name,
		pos:   make(map[int]int, len(items)),
	}
	for i, it := range items {
		snap.pos[it.ID] = i
	}
	if buildStore {
		if k <= 0 {
			k = 10
		}
		store, err := db.BuildApproxStoreContext(ctx, items, k)
		if err != nil {
			return nil, fmt.Errorf("server: approximate store build: %w", err)
		}
		snap.Store = store
	}
	return snap, nil
}

// buildSnapshot constructs a complete immutable snapshot from a dataset spec:
// load or generate the items, bulk-load the index, and (optionally)
// precompute the approximate store. All the expensive work happens here,
// before the swap — the swap itself is one atomic pointer store.
func buildSnapshot(ctx context.Context, spec DatasetSpec, opts repro.DBOptions) (*Snapshot, error) {
	items, name, err := loadItems(spec)
	if err != nil {
		return nil, err
	}
	return snapshotFromItems(ctx, items, name, spec.BuildStore, spec.K, opts)
}

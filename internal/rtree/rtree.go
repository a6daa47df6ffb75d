// Package rtree implements an in-memory R*-tree (Beckmann, Kriegel, Schneider,
// Seeger, SIGMOD 1990) over d-dimensional points, the index structure the
// paper uses for every dataset ("Each dataset is indexed by an R-tree, where
// the page size is set to 1536 bytes", §VI).
//
// The tree supports insertion with R* choose-subtree, forced reinsertion and
// topological split, deletion with condensing, sort-tile-recursive bulk
// loading, window (range) queries, early-exit existence queries, k-nearest
// neighbour search and a best-first branch-and-bound iterator used by the BBS
// skyline algorithm.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
)

// Item is a point payload stored in the tree. ID is caller-assigned and is
// reported back by queries; the tree itself never interprets it.
type Item struct {
	ID    int
	Point geom.Point
}

// Config controls the tree shape.
type Config struct {
	// MaxEntries is the node fanout M. Zero means "derive from PageSize".
	MaxEntries int
	// MinEntries is the minimum fill m (R* recommends 40% of M). Zero means
	// derive as max(2, 40% of MaxEntries).
	MinEntries int
	// PageSize, in bytes, is used to derive MaxEntries when it is zero:
	// an entry is modelled as 2·d float64 rectangle bounds plus an 8-byte
	// pointer/ID, matching the paper's 1536-byte page setup.
	PageSize int
	// Dims is the dimensionality; required when deriving fanout from
	// PageSize.
	Dims int
	// ReinsertFraction is the share of entries force-reinserted on first
	// overflow per level (R* uses 30%). Zero means 0.30.
	ReinsertFraction float64
}

// DefaultPageSize mirrors the paper's experimental setup.
const DefaultPageSize = 1536

// fanout derives M from a page size for d dimensions.
func fanout(pageSize, dims int) int {
	entry := 2*dims*8 + 8
	m := pageSize / entry
	if m < 4 {
		m = 4
	}
	return m
}

func (c Config) withDefaults(dims int) Config {
	if c.Dims == 0 {
		c.Dims = dims
	}
	if c.PageSize == 0 {
		c.PageSize = DefaultPageSize
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = fanout(c.PageSize, c.Dims)
	}
	if c.MinEntries == 0 {
		c.MinEntries = c.MaxEntries * 2 / 5
		if c.MinEntries < 2 {
			c.MinEntries = 2
		}
	}
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = 0.30
	}
	return c
}

// entry is a slot in a node: either a child node (internal) or an item (leaf).
type entry struct {
	rect  geom.Rect
	child *node // nil at leaves
	item  Item  // valid at leaves
}

type node struct {
	leaf    bool
	level   int // 0 at leaves
	entries []entry
}

// mbr returns a fresh minimum bounding rectangle of n's entries. It is the
// value the parent's entry for n stores (checkInvariants pins equality), so
// traversals read that stored copy instead of calling this.
func (n *node) mbr() geom.Rect {
	return mbrOf(n.entries)
}

// Tree is an R*-tree over point items. It is not safe for concurrent
// mutation; concurrent read-only queries are safe.
type Tree struct {
	cfg       Config
	root      *node
	size      int
	height    int
	accesses  atomic.Int64
	leafScans atomic.Int64
	// levelAccesses splits the access count by node level (index 0 = leaves);
	// levels beyond the tracked window fold into the top slot. pruned counts
	// subtree/entry prunes taken by a traversal's prune hook — page reads the
	// branch-and-bound avoided.
	levelAccesses [maxTrackedLevels]atomic.Int64
	pruned        atomic.Int64
}

// New returns an empty tree for dims-dimensional points.
func New(dims int, cfg Config) *Tree {
	cfg = cfg.withDefaults(dims)
	return &Tree{
		cfg:    cfg,
		root:   &node{leaf: true},
		height: 1,
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf root).
func (t *Tree) Height() int { return t.height }

// Config returns the effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Bounds returns the MBR of all stored items; ok is false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	e := entry{rect: geom.PointRect(it.Point), item: it}
	reinserted := make(map[int]bool) // levels that already did forced reinsert
	t.insertEntry(e, 0, reinserted)
	t.size++
}

func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) {
	leafPath := t.choosePath(e.rect, level)
	n := leafPath[len(leafPath)-1]
	n.entries = append(n.entries, e)
	t.adjustPath(leafPath, e.rect)
	if len(n.entries) > t.cfg.MaxEntries {
		t.overflowTreatment(leafPath, reinserted)
	}
}

// choosePath descends from the root to the node at the given level using the
// R* choose-subtree criterion and returns the root-to-node path.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree picks the child index of n best suited to receive rect r.
// For children pointing at leaves R* minimises overlap enlargement; otherwise
// it minimises area enlargement, with area as the tie-breaker.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	if n.level == 1 {
		// Children are leaves: minimum overlap enlargement.
		best, bestOverlapInc, bestAreaInc, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			enlarged := e.rect.Union(r)
			var before, after float64
			for j, f := range n.entries {
				if j == i {
					continue
				}
				before += e.rect.OverlapArea(f.rect)
				after += enlarged.OverlapArea(f.rect)
			}
			overlapInc := after - before
			areaInc := enlarged.Area() - e.rect.Area()
			area := e.rect.Area()
			if overlapInc < bestOverlapInc ||
				(overlapInc == bestOverlapInc && areaInc < bestAreaInc) ||
				(overlapInc == bestOverlapInc && areaInc == bestAreaInc && area < bestArea) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
		}
		return best
	}
	// Internal: minimum area enlargement, tie-break on area.
	best, bestAreaInc, bestArea := -1, math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		areaInc := e.rect.Union(r).Area() - e.rect.Area()
		area := e.rect.Area()
		if areaInc < bestAreaInc || (areaInc == bestAreaInc && area < bestArea) {
			best, bestAreaInc, bestArea = i, areaInc, area
		}
	}
	return best
}

// adjustPath enlarges the parent entries along the path to cover r.
func (t *Tree) adjustPath(path []*node, r geom.Rect) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].rect = parent.entries[j].rect.Union(r)
				break
			}
		}
	}
}

// refreshPath recomputes exact MBRs bottom-up along the path (used after
// removals, where Union-based adjustment is insufficient).
func refreshPath(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].rect = child.mbr()
				break
			}
		}
	}
}

// overflowTreatment handles an overfull node at the end of path: forced
// reinsert on the first overflow at that level, split otherwise.
func (t *Tree) overflowTreatment(path []*node, reinserted map[int]bool) {
	n := path[len(path)-1]
	if len(path) > 1 && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsert(path, reinserted)
		return
	}
	t.splitAt(path)
}

// reinsert removes the ReinsertFraction of entries of the overfull node whose
// centres are farthest from the node MBR centre and reinserts them (far-first,
// matching the "far reinsert" variant).
func (t *Tree) reinsert(path []*node, reinserted map[int]bool) {
	n := path[len(path)-1]
	center := n.mbr().Center()
	type distEntry struct {
		d float64
		e entry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i] = distEntry{d: e.rect.Center().L2(center), e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d > des[j].d })
	k := int(t.cfg.ReinsertFraction * float64(len(des)))
	if k < 1 {
		k = 1
	}
	removed := make([]entry, k)
	for i := 0; i < k; i++ {
		removed[i] = des[i].e
	}
	n.entries = n.entries[:0]
	for _, de := range des[k:] {
		n.entries = append(n.entries, de.e)
	}
	refreshPath(path)
	for _, e := range removed {
		t.insertEntry(e, n.level, reinserted)
	}
}

// splitAt splits the overfull node at the end of path, propagating upward.
func (t *Tree) splitAt(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.cfg.MaxEntries {
			return
		}
		left, right := t.rstarSplit(n)
		if i == 0 {
			// Grow a new root.
			newRoot := &node{
				leaf:  false,
				level: n.level + 1,
				entries: []entry{
					{rect: left.mbr(), child: left},
					{rect: right.mbr(), child: right},
				},
			}
			t.root = newRoot
			t.height++
			return
		}
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j] = entry{rect: left.mbr(), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry{rect: right.mbr(), child: right})
		// Continue loop: parent may now overflow.
	}
}

// rstarSplit performs the R* topological split of n into two nodes.
func (t *Tree) rstarSplit(n *node) (*node, *node) {
	m := t.cfg.MinEntries
	M := len(n.entries)
	dims := n.entries[0].rect.Dims()

	// ChooseSplitAxis: for every axis, sort by lo then by hi and sum margins
	// of all legal distributions; pick the axis with minimal margin sum.
	bestAxis, bestMargin := -1, math.Inf(1)
	var bestSorted []entry
	for axis := 0; axis < dims; axis++ {
		for _, byHi := range []bool{false, true} {
			es := append([]entry(nil), n.entries...)
			a, hi := axis, byHi
			sort.Slice(es, func(i, j int) bool {
				if hi {
					if es[i].rect.Hi[a] != es[j].rect.Hi[a] {
						return es[i].rect.Hi[a] < es[j].rect.Hi[a]
					}
					return es[i].rect.Lo[a] < es[j].rect.Lo[a]
				}
				if es[i].rect.Lo[a] != es[j].rect.Lo[a] {
					return es[i].rect.Lo[a] < es[j].rect.Lo[a]
				}
				return es[i].rect.Hi[a] < es[j].rect.Hi[a]
			})
			var marginSum float64
			for k := m; k <= M-m; k++ {
				marginSum += mbrOf(es[:k]).Margin() + mbrOf(es[k:]).Margin()
			}
			if marginSum < bestMargin {
				bestMargin, bestAxis = marginSum, axis
				bestSorted = es
			}
		}
	}
	_ = bestAxis

	// ChooseSplitIndex: minimal overlap, tie-break minimal total area.
	bestK, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	for k := m; k <= M-m; k++ {
		l := mbrOf(bestSorted[:k])
		r := mbrOf(bestSorted[k:])
		ov := l.OverlapArea(r)
		ar := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, ar
		}
	}

	left := &node{leaf: n.leaf, level: n.level, entries: append([]entry(nil), bestSorted[:bestK]...)}
	right := &node{leaf: n.leaf, level: n.level, entries: append([]entry(nil), bestSorted[bestK:]...)}
	return left, right
}

func mbrOf(es []entry) geom.Rect {
	r := es[0].rect.Clone()
	for _, e := range es[1:] {
		r.Expand(e.rect.Lo)
		r.Expand(e.rect.Hi)
	}
	return r
}

// Delete removes the first stored item with the given ID and an equal point.
// It reports whether an item was removed.
func (t *Tree) Delete(it Item) bool {
	path, idx := t.findLeaf(t.root, nil, it)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(path)
	// Shrink root: a non-leaf root with a single child is replaced by it.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	if t.size == 0 {
		t.root = &node{leaf: true}
		t.height = 1
	}
	return true
}

func (t *Tree) findLeaf(n *node, path []*node, it Item) ([]*node, int) {
	path = append(path, n)
	if n.leaf {
		for i, e := range n.entries {
			if e.item.ID == it.ID && e.item.Point.Equal(it.Point) {
				return path, i
			}
		}
		return nil, -1
	}
	target := geom.PointRect(it.Point)
	for _, e := range n.entries {
		if e.rect.ContainsRect(target) {
			if p, i := t.findLeaf(e.child, path, it); p != nil {
				return p, i
			}
		}
	}
	return nil, -1
}

// condense removes underfull nodes along the path and reinserts their
// orphaned entries at the appropriate levels.
func (t *Tree) condense(path []*node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n, parent := path[i], path[i-1]
		if len(n.entries) < t.cfg.MinEntries {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: n.level})
			}
		}
	}
	refreshPathFull(path)
	for _, o := range orphans {
		if t.root.level < o.level {
			// Cannot happen in practice (root shrinks only after condense),
			// but guard by reinserting items individually.
			o.level = t.root.level
		}
		t.insertEntry(o.e, o.level, map[int]bool{})
	}
}

// refreshPathFull recomputes MBRs along the path, skipping detached nodes.
func refreshPathFull(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		for j := range parent.entries {
			if parent.entries[j].child != nil && len(parent.entries[j].child.entries) > 0 {
				parent.entries[j].rect = parent.entries[j].child.mbr()
			}
		}
	}
}

// BulkLoad builds a tree from items using sort-tile-recursive packing, which
// produces near-optimal space utilisation and is how the experiment datasets
// are indexed.
func BulkLoad(dims int, items []Item, cfg Config) *Tree {
	cfg = cfg.withDefaults(dims)
	t := &Tree{cfg: cfg}
	if len(items) == 0 {
		t.root = &node{leaf: true}
		t.height = 1
		return t
	}
	leaves := strPack(items, cfg.MaxEntries, dims)
	level := 0
	nodes := leaves
	for len(nodes) > 1 {
		level++
		nodes = packNodes(nodes, cfg.MaxEntries, dims, level)
	}
	t.root = nodes[0]
	t.size = len(items)
	t.height = t.root.level + 1
	return t
}

// strPack tiles items into leaf nodes of capacity M using STR.
func strPack(items []Item, M, dims int) []*node {
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: geom.PointRect(it.Point), item: it}
	}
	groups := strTile(entries, M, dims, 0)
	leaves := make([]*node, len(groups))
	for i, g := range groups {
		leaves[i] = &node{leaf: true, level: 0, entries: g}
	}
	return leaves
}

func packNodes(children []*node, M, dims, level int) []*node {
	entries := make([]entry, len(children))
	for i, c := range children {
		entries[i] = entry{rect: c.mbr(), child: c}
	}
	groups := strTile(entries, M, dims, 0)
	out := make([]*node, len(groups))
	for i, g := range groups {
		out[i] = &node{leaf: false, level: level, entries: g}
	}
	return out
}

// strTile recursively sorts by the rectangle centres' successive dimensions
// and slices into tiles. Every returned group owns its backing array: groups
// become node entry slices, and a node must be able to append within its own
// capacity without clobbering a sibling. (Returning the aliased sub-slice
// here once let the first post-bulk-load insert overwrite the first entry of
// the next leaf.)
func strTile(es []entry, M, dims, dim int) [][]entry {
	if len(es) <= M {
		return [][]entry{append([]entry(nil), es...)}
	}
	// The centre coordinate, computed in place: Rect.Center would allocate
	// a point on every comparison.
	center := func(e *entry) float64 { return (e.rect.Lo[dim] + e.rect.Hi[dim]) / 2 }
	sort.Slice(es, func(i, j int) bool { return center(&es[i]) < center(&es[j]) })
	if dim == dims-1 {
		var out [][]entry
		for i := 0; i < len(es); i += M {
			j := i + M
			if j > len(es) {
				j = len(es)
			}
			out = append(out, append([]entry(nil), es[i:j]...))
		}
		return out
	}
	// Number of vertical slabs: ceil((n/M)^(1/(dims-dim))) tiles per axis.
	nLeaves := (len(es) + M - 1) / M
	slabs := int(math.Ceil(math.Pow(float64(nLeaves), 1.0/float64(dims-dim))))
	perSlab := (len(es) + slabs - 1) / slabs
	// Round slab size up to a multiple of M so leaves stay full.
	if rem := perSlab % M; rem != 0 {
		perSlab += M - rem
	}
	var out [][]entry
	for i := 0; i < len(es); i += perSlab {
		j := i + perSlab
		if j > len(es) {
			j = len(es)
		}
		out = append(out, strTile(es[i:j], M, dims, dim+1)...)
	}
	return out
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.size == 0 {
		return nil
	}
	count := 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if len(n.entries) > t.cfg.MaxEntries {
			return fmt.Errorf("node overflow: %d > %d", len(n.entries), t.cfg.MaxEntries)
		}
		if !isRoot && len(n.entries) < t.cfg.MinEntries {
			return fmt.Errorf("node underflow at level %d: %d < %d", n.level, len(n.entries), t.cfg.MinEntries)
		}
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("leaf at level %d", n.level)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			if e.child.level != n.level-1 {
				return fmt.Errorf("child level %d under parent level %d", e.child.level, n.level)
			}
			// Exact, not just covering: best-first traversals bound a popped
			// node by this stored rectangle instead of its recomputed MBR.
			if m := e.child.mbr(); !e.rect.Lo.Equal(m.Lo) || !e.rect.Hi.Equal(m.Hi) {
				return fmt.Errorf("entry rect %v differs from child MBR %v", e.rect, m)
			}
			if err := walk(e.child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}

package rtree

import (
	"math"
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
)

// Search invokes fn for every item whose point lies in the closed query
// rectangle. Traversal stops early if fn returns false.
func (t *Tree) Search(query geom.Rect, fn func(Item) bool) {
	t.search(t.root, query, fn, nil)
}

// SearchChecked is Search with cooperative cancellation: the checker is
// consulted once per visited node and the traversal aborts as soon as it
// reports cancellation, which is then returned. A nil checker degrades to
// plain Search.
func (t *Tree) SearchChecked(chk *cancel.Checker, query geom.Rect, fn func(Item) bool) error {
	if err := chk.Err(); err != nil {
		return err
	}
	t.search(t.root, query, fn, chk)
	return chk.Err()
}

func (t *Tree) search(n *node, query geom.Rect, fn func(Item) bool, chk *cancel.Checker) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	t.recordAccess(n.level)
	for _, e := range n.entries {
		if !query.Intersects(e.rect) {
			continue
		}
		if n.leaf {
			if !fn(e.item) {
				return false
			}
		} else if !t.search(e.child, query, fn, chk) {
			return false
		}
	}
	return true
}

// RangeQuery collects all items inside the closed query rectangle.
func (t *Tree) RangeQuery(query geom.Rect) []Item {
	var out []Item
	t.Search(query, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// Exists reports whether any item inside the closed query rectangle satisfies
// pred, short-circuiting the traversal at the first hit. A nil pred matches
// every item. This is the existence-only window query used to verify reverse
// skyline membership.
func (t *Tree) Exists(query geom.Rect, pred func(Item) bool) bool {
	found, _ := t.ExistsChecked(nil, query, pred)
	return found
}

// ExistsChecked is Exists with cooperative cancellation. When the traversal
// is cancelled before a witness is found, found is false and the context's
// error is returned.
func (t *Tree) ExistsChecked(chk *cancel.Checker, query geom.Rect, pred func(Item) bool) (bool, error) {
	found := false
	err := t.SearchChecked(chk, query, func(it Item) bool {
		if pred == nil || pred(it) {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// Count returns the number of items inside the closed query rectangle.
func (t *Tree) Count(query geom.Rect) int {
	n := 0
	t.Search(query, func(Item) bool { n++; return true })
	return n
}

// All invokes fn for every stored item.
func (t *Tree) All(fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.search(t.root, t.root.mbr(), fn, nil)
}

// Items returns all stored items.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.All(func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// ---- best-first (branch-and-bound) traversal -------------------------------

// pqEntry is a heap element: the tree entry a node or an item was reached
// through, so a pop bounds a node by the rectangle its parent stores (equal
// to the node's MBR, see checkInvariants) instead of rebuilding it.
type pqEntry struct {
	key float64
	e   *entry // e.child == nil: the item e.item
}

// pq is a binary min-heap on key. push and pop replicate container/heap's
// sift-up and sift-down step for step, without boxing every element in an
// interface. The exact order matters: keys tie often (every node containing
// the centre has key 0), and which tied entry pops first decides which nodes
// a pruning traversal visits, so the paper's cost counters depend on it.
type pq []pqEntry

func (h *pq) push(x pqEntry) {
	*h = append(*h, x)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *pq) pop() pqEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].key < s[j1].key {
			j = j2 // right child
		}
		if !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	*h = s[:n]
	return x
}

// BestFirst yields items in non-decreasing order of key, where itemKey scores
// a point and rectKey must lower-bound itemKey over every point inside the
// rectangle. prune, when non-nil, is consulted before expanding a node or
// emitting an item; returning true skips the subtree/item (the BBS dominance
// pruning hook). Iteration stops when fn returns false.
//
// The rectangles handed to rectKey and prune are the tree's own storage:
// read-only, and valid only for the duration of the call.
func (t *Tree) BestFirst(
	itemKey func(geom.Point) float64,
	rectKey func(geom.Rect) float64,
	prune func(rect geom.Rect) bool,
	fn func(Item, float64) bool,
) {
	t.bestFirst(nil, itemKey, rectKey, prune, fn)
}

// BestFirstChecked is BestFirst with cooperative cancellation: the checker is
// consulted once per heap pop (node or item expansion) and the traversal
// aborts, returning the context's error, as soon as it fires.
func (t *Tree) BestFirstChecked(
	chk *cancel.Checker,
	itemKey func(geom.Point) float64,
	rectKey func(geom.Rect) float64,
	prune func(rect geom.Rect) bool,
	fn func(Item, float64) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	t.bestFirst(chk, itemKey, rectKey, prune, fn)
	return chk.Err()
}

func (t *Tree) bestFirst(
	chk *cancel.Checker,
	itemKey func(geom.Point) float64,
	rectKey func(geom.Rect) float64,
	prune func(rect geom.Rect) bool,
	fn func(Item, float64) bool,
) {
	if t.size == 0 {
		return
	}
	// The root has no parent entry; this one stands in for it.
	root := &entry{rect: t.root.mbr(), child: t.root}
	h := pq{{key: rectKey(root.rect), e: root}}
	for len(h) > 0 {
		if chk.Point(cancel.SiteRTreeNode) != nil {
			return
		}
		top := h.pop()
		e := top.e
		if e.child == nil {
			if prune != nil && prune(e.rect) {
				t.pruned.Add(1)
				continue
			}
			if !fn(e.item, top.key) {
				return
			}
			continue
		}
		n := e.child
		t.recordAccess(n.level)
		if prune != nil && prune(e.rect) {
			t.pruned.Add(1)
			continue
		}
		prunedHere := int64(0)
		for i := range n.entries {
			ne := &n.entries[i]
			if prune != nil && prune(ne.rect) {
				prunedHere++
				continue
			}
			if n.leaf {
				h.push(pqEntry{key: itemKey(ne.item.Point), e: ne})
			} else {
				h.push(pqEntry{key: rectKey(ne.rect), e: ne})
			}
		}
		if prunedHere > 0 {
			t.pruned.Add(prunedHere)
		}
	}
}

// GuidedSearch is a depth-first traversal restricted to subtrees
// intersecting query, visiting children in ascending order(rect) and
// consulting prune before each descent (prune sees the child MBR; returning
// true skips it). Unlike BestFirst it keeps no global heap — the ordering is
// only per-node — which makes it the cheap engine for window-local
// branch-and-bound where any collected witness prunes soundly regardless of
// global visit order. Traversal stops when fn returns false.
func (t *Tree) GuidedSearch(
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
) {
	if t.size == 0 {
		return
	}
	t.guidedSearch(t.root, query, order, prune, fn, nil)
}

// GuidedSearchChecked is GuidedSearch with cooperative cancellation at
// node-visit granularity.
func (t *Tree) GuidedSearchChecked(
	chk *cancel.Checker,
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	if t.size > 0 {
		t.guidedSearch(t.root, query, order, prune, fn, chk)
	}
	return chk.Err()
}

func (t *Tree) guidedSearch(
	n *node,
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
	chk *cancel.Checker,
) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	t.recordAccess(n.level)
	if n.leaf {
		for _, e := range n.entries {
			if !query.Intersects(e.rect) {
				continue
			}
			if !fn(e.item) {
				return false
			}
		}
		return true
	}
	type childRef struct {
		key float64
		idx int
	}
	refs := make([]childRef, 0, len(n.entries))
	for i, e := range n.entries {
		if !query.Intersects(e.rect) {
			continue
		}
		refs = append(refs, childRef{key: order(e.rect), idx: i})
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].key < refs[b].key })
	prunedHere := int64(0)
	for _, r := range refs {
		e := n.entries[r.idx]
		if prune != nil && prune(e.rect) {
			prunedHere++
			continue
		}
		if !t.guidedSearch(e.child, query, order, prune, fn, chk) {
			if prunedHere > 0 {
				t.pruned.Add(prunedHere)
			}
			return false
		}
	}
	if prunedHere > 0 {
		t.pruned.Add(prunedHere)
	}
	return true
}

// NearestNeighbors returns the k items nearest to p by Euclidean distance,
// nearest first. Fewer than k items are returned when the tree is smaller.
func (t *Tree) NearestNeighbors(k int, p geom.Point) []Item {
	out := make([]Item, 0, k)
	t.BestFirst(
		func(x geom.Point) float64 { return p.L2(x) },
		func(r geom.Rect) float64 { return r.MinDistL2(p) },
		nil,
		func(it Item, _ float64) bool {
			out = append(out, it)
			return len(out) < k
		},
	)
	return out
}

// NearestNeighbor returns the single nearest item; ok is false when empty.
func (t *Tree) NearestNeighbor(p geom.Point) (Item, bool) {
	nn := t.NearestNeighbors(1, p)
	if len(nn) == 0 {
		return Item{}, false
	}
	return nn[0], true
}

// MinKeyItem returns the stored item minimising itemKey, using rectKey as the
// lower bound for pruning; ok is false when the tree is empty.
func (t *Tree) MinKeyItem(itemKey func(geom.Point) float64, rectKey func(geom.Rect) float64) (Item, bool) {
	var best Item
	bestKey := math.Inf(1)
	found := false
	t.BestFirst(itemKey, rectKey, nil, func(it Item, key float64) bool {
		best, bestKey, found = it, key, true
		_ = bestKey
		return false
	})
	return best, found
}

package rtree

import (
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
)

// SearchChecked invokes fn for every item whose point lies in the closed
// query rectangle; the traversal stops early if fn returns false. The checker
// is consulted once per visited node and the traversal aborts as soon as it
// reports cancellation, which is then returned; a nil checker never cancels.
// The visited nodes are counted into c.
func (t *Tree) SearchChecked(chk *cancel.Checker, c *obs.Counts, query geom.Rect, fn func(Item) bool) error {
	if err := chk.Err(); err != nil {
		return err
	}
	defer t.addVisits(c, c.NodeAccesses, c.LeafScans)
	t.search(t.root, query, fn, chk, c)
	return chk.Err()
}

func (t *Tree) search(n *node, query geom.Rect, fn func(Item) bool, chk *cancel.Checker, c *obs.Counts) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	c.Visit(n.level)
	for _, e := range n.entries {
		if !query.Intersects(e.rect) {
			continue
		}
		if n.leaf {
			if !fn(e.item) {
				return false
			}
		} else if !t.search(e.child, query, fn, chk, c) {
			return false
		}
	}
	return true
}

// ExistsChecked reports whether any item inside the closed query rectangle
// satisfies pred, short-circuiting the traversal at the first hit. A nil
// pred matches every item. This is the existence-only window query that
// verifies reverse skyline membership. It cancels and counts into c like
// SearchChecked; when the traversal is cancelled before a witness is found,
// found is false and the context's error is returned.
func (t *Tree) ExistsChecked(chk *cancel.Checker, c *obs.Counts, query geom.Rect, pred func(Item) bool) (bool, error) {
	found := false
	err := t.SearchChecked(chk, c, query, func(it Item) bool {
		if pred == nil || pred(it) {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// Items returns all stored items.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	if t.size == 0 {
		return out
	}
	_ = t.SearchChecked(nil, new(obs.Counts), t.root.mbr(), func(it Item) bool {
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

// BestFirstChecked yields items in non-decreasing order of key, where
// itemKey scores a point and rectKey must lower-bound itemKey over every
// point inside the rectangle. prune, when non-nil, is consulted before
// expanding a node or emitting an item; returning true skips the subtree or
// item (the BBS dominance pruning hook). Iteration stops when fn returns
// false.
//
// The rectangles handed to rectKey and prune are the tree's own storage:
// read-only, and valid only for the duration of the call.
//
// The checker is consulted once per heap pop (node or item expansion) and
// the traversal aborts, returning the context's error, as soon as it fires.
// Node visits and prune-hook skips are counted into c like SearchChecked's.
func (t *Tree) BestFirstChecked(
	chk *cancel.Checker,
	c *obs.Counts,
	itemKey func(geom.Point) float64,
	rectKey func(geom.Rect) float64,
	prune func(rect geom.Rect) bool,
	fn func(Item, float64) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	defer t.addVisits(c, c.NodeAccesses, c.LeafScans)
	t.bestFirst(chk, c, itemKey, rectKey, prune, fn)
	return chk.Err()
}

func (t *Tree) bestFirst(
	chk *cancel.Checker,
	c *obs.Counts,
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
				c.TreePruned++
				continue
			}
			if !fn(e.item, top.key) {
				return
			}
			continue
		}
		n := e.child
		c.Visit(n.level)
		if prune != nil && prune(e.rect) {
			c.TreePruned++
			continue
		}
		for i := range n.entries {
			ne := &n.entries[i]
			if prune != nil && prune(ne.rect) {
				c.TreePruned++
				continue
			}
			if n.leaf {
				h.push(pqEntry{key: itemKey(ne.item.Point), e: ne})
			} else {
				h.push(pqEntry{key: rectKey(ne.rect), e: ne})
			}
		}
	}
}

// GuidedSearchChecked is a depth-first traversal restricted to subtrees
// intersecting query, visiting children in ascending order(rect) and
// consulting prune before each descent (prune sees the child MBR; returning
// true skips it). Unlike BestFirstChecked it keeps no global heap — the
// ordering is only per-node — which makes it the cheap engine for
// window-local branch-and-bound where any collected witness prunes soundly
// regardless of global visit order. Traversal stops when fn returns false.
// It cancels at node-visit granularity and counts into c like
// BestFirstChecked.
func (t *Tree) GuidedSearchChecked(
	chk *cancel.Checker,
	c *obs.Counts,
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	if t.size > 0 {
		defer t.addVisits(c, c.NodeAccesses, c.LeafScans)
		t.guidedSearch(t.root, query, order, prune, fn, chk, c)
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
	c *obs.Counts,
) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	c.Visit(n.level)
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
	for _, r := range refs {
		e := n.entries[r.idx]
		if prune != nil && prune(e.rect) {
			c.TreePruned++
			continue
		}
		if !t.guidedSearch(e.child, query, order, prune, fn, chk, c) {
			return false
		}
	}
	return true
}

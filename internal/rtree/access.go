package rtree

import "repro/internal/obs"

// Node-access accounting: in a disk-resident R-tree every visited node is a
// page read, so "nodes accessed" is the standard I/O cost metric of the
// skyline literature (BBS is I/O-optimal in it). Every traversal
// (SearchChecked, ExistsChecked, BestFirstChecked, GuidedSearchChecked and
// the operations built on them) counts its node visits, per level, and its
// prune-hook skips into the caller's obs.Counts, which the caller flushes to
// its query's tally once. When the traversal returns it adds its visits to
// the tree's totals, so Accesses and LeafScans stay exact and live however
// many queries run at once; per-query attribution comes from the tally,
// never from differencing these totals.

// addVisits adds the node visits counted into c since it held nodes visits
// (leaves of them leaf scans) to the tree's totals; traversals defer it.
func (t *Tree) addVisits(c *obs.Counts, nodes, leaves uint64) {
	t.accesses.Add(int64(c.NodeAccesses - nodes))
	t.leafScans.Add(int64(c.LeafScans - leaves))
}

// Accesses returns the number of nodes visited since the last reset.
func (t *Tree) Accesses() int { return int(t.accesses.Load()) }

// LeafScans returns how many of the visited nodes were leaves — the fraction
// of the I/O that read data pages rather than directory pages. A traversal
// with a high leaf share is doing little pruning.
func (t *Tree) LeafScans() int { return int(t.leafScans.Load()) }

// ResetAccesses zeroes the node-access and leaf-scan totals.
func (t *Tree) ResetAccesses() {
	t.accesses.Store(0)
	t.leafScans.Store(0)
}

package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cost counters: the paper's efficiency metrics (§VII measures R-tree node
// accesses, dominance tests and per-phase runtimes). They are always on. An
// operation call counts into a local Counts — the R-tree and skyline loops
// take a *Counts and never a context — and its ctx-carrying caller flushes
// that value once (Flush). A flush adds to two places:
//
//   - the process-global counters below, which a registry reads through
//     CounterFunc and Cost snapshots (node accesses are totalled per tree,
//     rtree.Tree.Accesses, added by each traversal when it returns);
//   - every Tally on the context's chain: the query's own counters, opened
//     where a query enters (a flight record, a plan builder) and by every
//     plan node. A tally receives only the flushes made under its context,
//     so what a flight record or plan node reports is that query's work
//     alone while other queries run.
//
// Multiple DBs in one process share the global counters.
var global [len(costMetrics)]atomic.Uint64

// costMetrics names the global counters for a registry, in CostSnapshot's
// field order (fields).
var costMetrics = [...]struct{ name, help string }{
	{"dominance_tests_total", "point-point dominance evaluations (the paper's dominance-test cost metric)"},
	{"dsl_computations_total", "full dynamic-skyline computations (cache hits excluded)"},
	{"window_queries_total", "window queries issued (full, existence and frontier)"},
	{"saferegion_vertices_total", "safe-region rectangle corners enumerated by Algorithm 4"},
	{"candidate_evaluations_total", "candidate evaluations (case-C2 corners, each a full MWP)"},
	{"cache_stale_on_arrival_total", "cache hits invalidated by a racing mutation (generation mismatch)"},
	{"degradation_events_total", "ladder degradations (a rung failed, a cheaper rung was attempted)"},
	{"query_cancellations_total", "queries aborted by deadline or cancellation"},
	{"pruned_entries_total", "candidates discarded by algorithm-level pruning rules before exact verification"},
}

// MaxLevels bounds the per-level node-access breakdown. An R*-tree with
// fanout ≥ 8 holds >10^14 items at 16 levels, so the fold-into-top-slot case
// is theoretical.
const MaxLevels = 16

// Counts is one batch of cost counts: the paper's counters (CostSnapshot)
// plus the R-tree access breakdown and the cache outcomes only tallies keep.
// The zero value is empty; layers count into it with plain increments and
// hand it to Flush once per operation call.
type Counts struct {
	CostSnapshot
	// NodeAccesses and LeafScans count R-tree node reads, LevelAccesses splits
	// them by level (index 0 = leaves; deeper levels fold into the top slot),
	// and TreePruned counts subtrees and entries a traversal's prune hook
	// skipped — page reads the branch-and-bound avoided.
	NodeAccesses  uint64
	LeafScans     uint64
	LevelAccesses [MaxLevels]uint64
	TreePruned    uint64
	// CacheHits and CacheMisses count DSL and anti-DDR cache lookups with
	// exec.CacheStats' definitions: a found entry is a hit even when its
	// generation check then rejects it (also counted as CacheStale).
	CacheHits   uint64
	CacheMisses uint64
}

// Visit counts one R-tree node read at the given level (0 = leaves).
func (c *Counts) Visit(level int) {
	c.NodeAccesses++
	if level == 0 {
		c.LeafScans++
	}
	c.LevelAccesses[min(level, MaxLevels-1)]++
}

// Flush adds c to the process-global counters and to every tally on ctx's
// chain. Call it once per operation call, with everything that call counted.
func Flush(ctx context.Context, c *Counts) {
	for i, n := range c.fields() {
		if *n != 0 {
			global[i].Add(*n)
		}
	}
	for t := TallyFrom(ctx); t != nil; t = t.parent {
		t.add(c)
	}
}

// Tally is one query's (or one plan node's) counter set. Flushes made under
// a context carrying it add to it and to its parent chain, from any number
// of goroutines; Counts reads it at any time. A mutex suffices: only the
// query's own workers ever flush into its tallies. A nil *Tally reads as
// zero.
type Tally struct {
	parent *Tally
	mu     sync.Mutex
	counts Counts
}

// NewTally opens a tally whose flushes also reach parent (nil for none).
func NewTally(parent *Tally) *Tally { return &Tally{parent: parent} }

func (t *Tally) add(c *Counts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, sf := &t.counts, t.counts.fields()
	for i, n := range c.fields() {
		*sf[i] += *n
	}
	s.NodeAccesses += c.NodeAccesses
	s.LeafScans += c.LeafScans
	for i, n := range c.LevelAccesses {
		s.LevelAccesses[i] += n
	}
	s.TreePruned += c.TreePruned
	s.CacheHits += c.CacheHits
	s.CacheMisses += c.CacheMisses
}

// Counts returns what the tally has received so far.
func (t *Tally) Counts() Counts {
	if t == nil {
		return Counts{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

type tallyKey struct{}

// WithTally returns a context whose flushes reach t (and t's parents).
func WithTally(ctx context.Context, t *Tally) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tallyKey{}, t)
}

// TallyFrom returns the innermost tally carried by ctx, or nil. Layers look
// it up once per operation call, in Flush.
func TallyFrom(ctx context.Context) *Tally {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tallyKey{}).(*Tally)
	return t
}

// CostSnapshot is a point-in-time copy of the paper's cost counters: of the
// process-global ones (Cost) or of one tally (Tally.Counts). Node accesses
// are per tree (rtree.Tree.Accesses) and are merged in by the repro layer's
// snapshot.
type CostSnapshot struct {
	DominanceTests       uint64 `json:"dominance_tests"`
	DSLComputations      uint64 `json:"dsl_computations"`
	WindowQueries        uint64 `json:"window_queries"`
	SafeRegionVertices   uint64 `json:"saferegion_vertices"`
	CandidateEvaluations uint64 `json:"candidate_evaluations"`
	CacheStale           uint64 `json:"cache_stale_on_arrival"`
	Degradations         uint64 `json:"degradations"`
	Cancellations        uint64 `json:"cancellations"`
	PrunedEntries        uint64 `json:"pruned_entries"`
}

// fields lists s's counters in field order, the order of costMetrics.
func (s *CostSnapshot) fields() [len(costMetrics)]*uint64 {
	return [...]*uint64{&s.DominanceTests, &s.DSLComputations, &s.WindowQueries,
		&s.SafeRegionVertices, &s.CandidateEvaluations, &s.CacheStale,
		&s.Degradations, &s.Cancellations, &s.PrunedEntries}
}

// Cost reads the current global cost counters.
func Cost() CostSnapshot {
	var s CostSnapshot
	for i, n := range s.fields() {
		*n = global[i].Load()
	}
	return s
}

// Sub returns the per-field difference s − o (the delta of one measured
// workload, with o the snapshot taken before it).
func (s CostSnapshot) Sub(o CostSnapshot) CostSnapshot {
	of := o.fields()
	for i, n := range s.fields() {
		*n -= *of[i]
	}
	return s
}

// RegisterCost exposes the global cost counters on a registry as read-through
// counters.
func RegisterCost(r *Registry) {
	if r == nil {
		return
	}
	for i, m := range costMetrics {
		r.CounterFunc(m.name, m.help, global[i].Load)
	}
}

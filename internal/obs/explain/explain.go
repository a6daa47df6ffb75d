// Package explain builds per-query plan trees: a structured profile of which
// phases a why-not query ran, how many candidates entered and survived each
// one, which pruning rule did the work, how many R-tree pages each phase read
// per level, and what each phase cost against a calibrated estimate. It is
// the drill-down layer on top of the flat counters (internal/obs cost
// counters) and the span timeline (obs.Trace): those say *that* a query was
// slow, the plan says *which phase failed to prune*.
//
// The package follows the internal/obs design rules: a nil *Builder (explain
// disabled) reduces every hook to a nil check with zero allocations, carried
// through context like obs.Trace; timestamps come from obs.Now (the vet-obs
// lint bans raw time.Now here); per-node counter attribution uses snapshot
// deltas of the process-global cost counters and the per-tree access
// counters — exact for a serial query, an aggregate under concurrency (same
// contract as the flight recorder's cost deltas).
package explain

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// TreeStats is the slice of the R-tree's access accounting a Builder
// snapshots around each plan node (implemented by *rtree.Tree). Defined here
// so the package depends only on internal/obs.
type TreeStats interface {
	Accesses() int
	LeafScans() int
	LevelAccesses() []int64
	Pruned() int
}

// Pruning rules a plan node can attribute its work to — the paper's four
// candidate-elimination mechanisms plus a catch-all.
const (
	// RuleGlobalDominance: a globally dominated customer can never include q
	// in its dynamic skyline, so it is discarded before any window query
	// (Lemma: global skyline filtering in the BBRS pipeline).
	RuleGlobalDominance = "global-dominance"
	// RuleDSLWindow: the dynamic-skyline window/frontier query — the
	// transformed-box dominance prune inside the guided R-tree descent.
	RuleDSLWindow = "dsl-window"
	// RuleMidpoint: midpoint/binding-constraint candidate generation in MWP
	// (Algorithm 1) — frontier points in, canonical candidates out.
	RuleMidpoint = "midpoint"
	// RuleSafeRegion: safe-region containment (Algorithm 3/4) — anti-DDR
	// intersection folding and corner enumeration.
	RuleSafeRegion = "safe-region"
	// RuleMindist: BBRS best-first mindist ordering with dominance pruning
	// of heap entries.
	RuleMindist = "bbrs-mindist"
	// RuleNone marks a structural node with no pruning of its own.
	RuleNone = ""
)

// Node is one profiled phase in a plan tree. Candidate counts are recorded
// explicitly by the instrumented layer (SetIn/SetOut); everything else is a
// snapshot delta taken between Start and End.
type Node struct {
	Name string `json:"name"`
	Rule string `json:"rule,omitempty"`
	// In/Out are candidates entering and surviving this phase; -1 = not
	// recorded (structural node).
	In  int `json:"in"`
	Out int `json:"out"`
	// ActualNS is the measured wall time, EstNS the cost-model estimate made
	// from the node's inputs (rule + In) before this node's own timing fed
	// back into calibration.
	ActualNS int64 `json:"actual_ns"`
	EstNS    int64 `json:"est_ns"`
	// Cost is the delta of the process-global cost counters across the node.
	Cost obs.CostSnapshot `json:"cost"`
	// NodeAccesses/LeafScans/LevelAccesses/TreePruned are deltas of the
	// R-tree access accounting (LevelAccesses index 0 = leaves).
	NodeAccesses  int     `json:"node_accesses"`
	LeafScans     int     `json:"leaf_scans"`
	LevelAccesses []int64 `json:"level_accesses,omitempty"`
	TreePruned    int     `json:"tree_pruned"`
	Children      []*Node `json:"children,omitempty"`
}

// PruneRatio returns the fraction of inbound candidates this phase
// eliminated, and false when candidate counts were not recorded.
func (n *Node) PruneRatio() (float64, bool) {
	if n == nil || n.In <= 0 || n.Out < 0 || n.Out > n.In {
		return 0, false
	}
	return float64(n.In-n.Out) / float64(n.In), true
}

// Walk visits the node and its descendants preorder.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Plan is a finished profile for one query.
type Plan struct {
	Op   string `json:"op"`
	Dims int    `json:"dims"`
	Rung string `json:"rung,omitempty"`
	// Shape is the preorder rendering of the tree's names and rules;
	// Fingerprint hashes (Op, Dims, Rung, Shape) — the workload-class key of
	// the fingerprint store.
	Shape       string `json:"shape"`
	Fingerprint string `json:"fingerprint"`
	TotalNS     int64  `json:"total_ns"`
	Root        *Node  `json:"root"`
}

// Span is an open plan node: End closes it and computes its deltas. A nil
// Span (from a nil Builder) no-ops everywhere.
type Span struct {
	b    *Builder
	n    *Node
	done bool

	startNS     int64
	startCost   obs.CostSnapshot
	startAcc    int
	startLeaf   int
	startPruned int
	startLevels []int64
}

// Builder assembles the plan tree for one query. Safe for concurrent Start/
// End from parallel phase workers (a mutex, not atomics — explain is a
// per-request opt-in, contention is bounded by the worker pool).
type Builder struct {
	op    string
	dims  int
	tree  TreeStats
	model *Model

	mu    sync.Mutex
	root  *Span
	stack []*Span // open nodes, innermost last
	plan  *Plan
}

// NewBuilder opens a plan for one query. model may be nil (estimates then
// stay zero); tree may be nil (no access attribution).
func NewBuilder(op string, dims int, model *Model, tree TreeStats) *Builder {
	b := &Builder{op: op, dims: dims, tree: tree, model: model}
	b.root = b.open(op, RuleNone)
	return b
}

// open creates a span with its start snapshots; callers append/push under mu
// (NewBuilder runs before the builder is shared, so no lock there).
func (b *Builder) open(name, rule string) *Span {
	sp := &Span{
		b:         b,
		n:         &Node{Name: name, Rule: rule, In: -1, Out: -1},
		startNS:   obs.Now(),
		startCost: obs.Cost(),
	}
	if b.tree != nil {
		sp.startAcc = b.tree.Accesses()
		sp.startLeaf = b.tree.LeafScans()
		sp.startPruned = b.tree.Pruned()
		sp.startLevels = b.tree.LevelAccesses()
	}
	return sp
}

// Start opens a child plan node under the innermost open node. Returns nil on
// a nil Builder — every Span method tolerates that, so call sites need no
// enabled-check.
func (b *Builder) Start(name, rule string) *Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plan != nil { // finished: late spans from stragglers are dropped
		return nil
	}
	sp := b.open(name, rule)
	parent := b.root
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	}
	parent.n.Children = append(parent.n.Children, sp.n)
	b.stack = append(b.stack, sp)
	return sp
}

// SetIn records the candidates entering the phase.
func (sp *Span) SetIn(n int) {
	if sp == nil {
		return
	}
	sp.n.In = n
}

// SetOut records the candidates surviving the phase.
func (sp *Span) SetOut(n int) {
	if sp == nil {
		return
	}
	sp.n.Out = n
}

// End closes the span: actual time, counter deltas, cost estimate, and model
// calibration. Idempotent; typically deferred.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.b.mu.Lock()
	defer sp.b.mu.Unlock()
	sp.endLocked()
}

// endLocked closes the span under the builder lock and unlinks it from the
// open stack (wherever it sits — parallel workers may end out of order).
func (sp *Span) endLocked() {
	if sp.done {
		return
	}
	sp.done = true
	b := sp.b
	n := sp.n
	n.ActualNS = obs.Now() - sp.startNS
	n.Cost = obs.Cost().Sub(sp.startCost)
	if b.tree != nil {
		n.NodeAccesses = b.tree.Accesses() - sp.startAcc
		n.LeafScans = b.tree.LeafScans() - sp.startLeaf
		n.TreePruned = b.tree.Pruned() - sp.startPruned
		levels := b.tree.LevelAccesses()
		for i, v := range levels {
			var prev int64
			if i < len(sp.startLevels) {
				prev = sp.startLevels[i]
			}
			if d := v - prev; d != 0 {
				if n.LevelAccesses == nil {
					n.LevelAccesses = make([]int64, len(levels))
				}
				n.LevelAccesses[i] = d
			}
		}
	}
	units := estUnits(n)
	n.EstNS = b.model.Estimate(n.Rule, units)
	b.model.Observe(n.Rule, units, n.ActualNS)
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i] == sp {
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			break
		}
	}
}

// estUnits maps a node to the cost model's work units: the inbound candidate
// count, the paper's cost driver for every phase (window queries per
// surviving customer, one MWP per corner, one dominance test per global-
// skyline pair). Structural nodes without counts charge one unit.
func estUnits(n *Node) int64 {
	if n.In > 0 {
		return int64(n.In)
	}
	return 1
}

// Finish closes any still-open spans and the root, derives the fingerprint,
// and returns the immutable plan. Idempotent: later calls return the same
// plan; rung from the first call wins. Nil-safe.
func (b *Builder) Finish(rung string) *Plan {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plan != nil {
		return b.plan
	}
	for len(b.stack) > 0 {
		b.stack[len(b.stack)-1].endLocked()
	}
	b.root.endLocked()
	shape := shapeOf(b.root.n)
	b.plan = &Plan{
		Op:          b.op,
		Dims:        b.dims,
		Rung:        rung,
		Shape:       shape,
		Fingerprint: fingerprintOf(b.op, b.dims, rung, shape),
		TotalNS:     b.root.n.ActualNS,
		Root:        b.root.n,
	}
	return b.plan
}

type ctxKey struct{}

// With returns a context carrying the builder; instrumented layers pick it up
// with From. Mirrors obs.WithTrace.
func With(ctx context.Context, b *Builder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// Hide returns ctx with its builder, if any, hidden from the layers below.
// Work whose repetition count depends on the data (MWQ's per-corner MWP
// runs, batch questions) runs under it, so the plan shape — and the query
// fingerprint — follow the pipeline, not the data. With no builder in ctx it
// returns ctx unchanged.
func Hide(ctx context.Context) context.Context {
	if From(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, (*Builder)(nil))
}

// From extracts the builder carried by ctx, or nil (explain disabled). The
// nil path allocates nothing — the disabled-overhead budget test pins that.
func From(ctx context.Context) *Builder {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(ctxKey{}).(*Builder)
	return b
}

// Package explain builds per-query plan trees: a structured profile of which
// phases a why-not query ran, how many candidates entered and survived each
// one, which pruning rule did the work, how many R-tree pages each phase read
// per level, and what each phase cost against a calibrated estimate. It is
// the drill-down layer on top of the flat counters (internal/obs cost
// counters) and the span timeline (obs.Trace): those say *that* a query was
// slow, the plan says *which phase failed to prune*.
//
// Phase is the one instrumentation hook of a query phase. A single call
// opens the phase as a span on the context's obs.Trace, as a node of the
// plan tree when a Builder rides the context, and as a pprof "phase" label,
// all under one name, so each phase appears once, and the same way, in
// traces, plans and CPU profiles. A plan node reads its counters from its
// own obs.Tally, which the phase puts on the context: every flush made
// inside the phase, on any worker, lands in it and in the query's tally
// above it, so a node's counts are its query's work alone however many
// other queries run.
//
// The package follows the internal/obs design rules: the Builder rides the
// context like obs.Trace, and without one (explain disabled) Phase opens no
// plan node, so the phase costs only its Span and pprof label; timestamps
// come from obs.Now (the vet-obs lint bans raw time.Now here).
package explain

import (
	"context"
	"runtime/pprof"
	"sync"

	"repro/internal/obs"
)

// Pruning rules a plan node can attribute its work to — the paper's
// candidate-elimination mechanisms plus a catch-all.
const (
	// RuleDSLWindow: the dynamic-skyline window/frontier query — the
	// transformed-box dominance prune inside the guided R-tree descent.
	RuleDSLWindow = "dsl-window"
	// RuleMidpoint: midpoint/binding-constraint candidate generation in MWP
	// (Algorithm 1) — frontier points in, canonical candidates out.
	RuleMidpoint = "midpoint"
	// RuleSafeRegion: safe-region containment (Algorithm 3/4) — anti-DDR
	// intersection folding and corner enumeration.
	RuleSafeRegion = "safe-region"
	// RuleNone marks a structural node with no pruning of its own.
	RuleNone = ""
)

// Node is one profiled phase in a plan tree. Candidate counts are recorded
// explicitly by the instrumented layer (SetIn/SetOut); the counters are the
// node's own tally, read when it ends.
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
	// Cost holds the paper's cost counters flushed inside the node.
	Cost obs.CostSnapshot `json:"cost"`
	// NodeAccesses/LeafScans/LevelAccesses/TreePruned are the R-tree access
	// counts flushed inside the node (LevelAccesses index 0 = leaves, up to
	// the highest level read).
	NodeAccesses  int     `json:"node_accesses"`
	LeafScans     int     `json:"leaf_scans"`
	LevelAccesses []int64 `json:"level_accesses,omitempty"`
	TreePruned    int     `json:"tree_pruned"`
	Children      []*Node `json:"children,omitempty"`
}

// setCounts copies a tally's counts onto the node.
func (n *Node) setCounts(c obs.Counts) {
	n.Cost = c.CostSnapshot
	n.NodeAccesses = int(c.NodeAccesses)
	n.LeafScans = int(c.LeafScans)
	n.TreePruned = int(c.TreePruned)
	top := len(c.LevelAccesses)
	for top > 0 && c.LevelAccesses[top-1] == 0 {
		top--
	}
	if top > 0 {
		n.LevelAccesses = make([]int64, top)
		for i := range n.LevelAccesses {
			n.LevelAccesses[i] = int64(c.LevelAccesses[i])
		}
	}
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

// Span is one open phase (Phase): End closes it, SetIn/SetOut record
// candidate counts on its plan node. A nil Span (a hidden phase) no-ops
// everywhere.
type Span struct {
	b     *Builder
	n     *Node
	tally *obs.Tally // the node's counters; nil records zeros
	// start is the one timestamp of the phase: the trace span and the plan
	// node both begin here.
	start int64
	name  string
	tr    *obs.Trace
	// labels is the context whose pprof labels End restores; nil when the
	// span set none.
	labels   context.Context
	nodeDone bool // guarded by b.mu
	ended    bool // End ran (only the opening goroutine calls End)
}

// Builder assembles the plan tree for one query. Safe for concurrent Phase/
// End from parallel phase workers (a mutex, not atomics — explain is a
// per-request opt-in, contention is bounded by the worker pool).
type Builder struct {
	op    string
	dims  int
	model *Model

	mu    sync.Mutex
	root  *Span
	stack []*Span // open nodes, innermost last
	plan  *Plan
}

// NewBuilder opens a plan for one query. model may be nil (estimates then
// stay zero). Attach it to the query's context with With.
func NewBuilder(op string, dims int, model *Model) *Builder {
	b := &Builder{op: op, dims: dims, model: model}
	b.root = &Span{b: b, n: &Node{Name: op, In: -1, Out: -1}, start: obs.Now()}
	return b
}

// open links a new node for sp under the innermost open node, reporting
// false when the plan is already finished (late spans from stragglers are
// dropped).
func (b *Builder) open(sp *Span, name, rule string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plan != nil {
		return false
	}
	sp.b = b
	sp.n = &Node{Name: name, Rule: rule, In: -1, Out: -1}
	parent := b.root
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	}
	parent.n.Children = append(parent.n.Children, sp.n)
	b.stack = append(b.stack, sp)
	return true
}

// Phase opens a query phase named name: a span on ctx's trace, a plan node
// with the given pruning rule under the innermost open node of ctx's
// builder, and the pprof label phase=name on the calling goroutine. The
// returned context carries the label (exec workers inherit it) and the
// node's tally; run the phase's work under it. End the span on the same
// goroutine, typically deferred. Under Hide, Phase opens nothing and returns
// ctx and a nil Span: the work is still counted, in the enclosing node and
// the query's tally.
func Phase(ctx context.Context, name, rule string) (context.Context, *Span) {
	v := ctx.Value(ctxKey{})
	b, _ := v.(*Builder)
	if v != nil && b == nil {
		return ctx, nil // hidden
	}
	sp := &Span{start: obs.Now(), name: name, tr: obs.TraceFrom(ctx), labels: ctx}
	if b != nil {
		sp.tally = obs.NewTally(obs.TallyFrom(ctx))
		if b.open(sp, name, rule) {
			ctx = obs.WithTally(ctx, sp.tally)
		}
	}
	ctx = pprof.WithLabels(ctx, pprof.Labels("phase", name))
	pprof.SetGoroutineLabels(ctx)
	return ctx, sp
}

// SetIn records the candidates entering the phase.
func (sp *Span) SetIn(n int) {
	if sp == nil || sp.n == nil {
		return
	}
	sp.n.In = n
}

// SetOut records the candidates surviving the phase.
func (sp *Span) SetOut(n int) {
	if sp == nil || sp.n == nil {
		return
	}
	sp.n.Out = n
}

// End closes the span: the plan node (actual time, counters, cost estimate
// and model calibration), the trace span, and the pprof label, which goes
// back to the caller's. Idempotent; typically deferred.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	now := obs.Now()
	if sp.b != nil {
		sp.b.mu.Lock()
		sp.b.closeLocked(sp, now)
		sp.b.mu.Unlock()
	}
	sp.tr.AddSpan(sp.name, sp.start, now)
	if sp.labels != nil {
		pprof.SetGoroutineLabels(sp.labels)
	}
}

// closeLocked closes sp's plan node under the builder lock and unlinks it
// from the open stack (wherever it sits — parallel workers may end out of
// order).
func (b *Builder) closeLocked(sp *Span, now int64) {
	if sp.nodeDone {
		return
	}
	sp.nodeDone = true
	n := sp.n
	n.ActualNS = now - sp.start
	n.setCounts(sp.tally.Counts())
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
// count, the paper's cost driver for every phase (one DSL and anti-DDR per
// safe-region member, one MWP per corner). Structural nodes without counts
// charge one unit.
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
	now := obs.Now()
	for len(b.stack) > 0 {
		b.closeLocked(b.stack[len(b.stack)-1], now)
	}
	b.closeLocked(b.root, now)
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

// With returns a context carrying the builder, for Phase to find, and the
// tally the plan's root node reads: a child of any tally ctx already
// carries, so the plan's counts also reach the enclosing query's. Attach a
// builder once.
func With(ctx context.Context, b *Builder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if b == nil {
		return ctx
	}
	b.root.tally = obs.NewTally(obs.TallyFrom(ctx))
	return obs.WithTally(context.WithValue(ctx, ctxKey{}, b), b.root.tally)
}

// Hide returns ctx with its phases hidden from the layers below: Phase
// opens no trace span, plan node or label under it, while the work stays
// counted in the enclosing node and the query's tally. Work whose
// repetition count depends on the data (MWQ's per-corner MWP runs, batch
// questions, MQP-cost MWPs) runs under it, so the plan shape — and the query
// fingerprint — follow the pipeline, not the data, and traces stay bounded.
func Hide(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, (*Builder)(nil))
}

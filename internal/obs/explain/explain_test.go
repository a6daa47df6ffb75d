package explain

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestBuilderTreeAndDeltas(t *testing.T) {
	b := NewBuilder("mwq", 2)
	ctx := With(context.Background(), b)

	pctx, sp := Phase(ctx, "saferegion", RuleSafeRegion)
	sp.SetIn(10)
	c := obs.Counts{CostSnapshot: obs.CostSnapshot{DominanceTests: 7}, TreePruned: 2}
	c.Visit(0)
	c.Visit(0)
	c.Visit(0)
	c.Visit(1)
	c.Visit(1)
	obs.Flush(pctx, &c)
	// A flush outside the phase reaches the root only.
	obs.Flush(ctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{WindowQueries: 1}})
	sp.SetOut(4)
	sp.End()

	_, child := Phase(ctx, "corners", RuleMidpoint)
	child.SetIn(8)
	child.SetOut(2)
	child.End()

	plan := b.Finish("exact")
	if plan == nil || plan.Root == nil {
		t.Fatal("nil plan")
	}
	if got := b.Finish("other"); got != plan {
		t.Fatal("Finish not idempotent")
	}
	if plan.Rung != "exact" {
		t.Fatalf("rung = %q", plan.Rung)
	}
	if len(plan.Root.Children) != 2 {
		t.Fatalf("children = %d, want 2 (second Phase after first End attaches to root)", len(plan.Root.Children))
	}
	sr := plan.Root.Children[0]
	if sr.Name != "saferegion" || sr.Rule != RuleSafeRegion {
		t.Fatalf("node 0 = %s[%s]", sr.Name, sr.Rule)
	}
	if sr.Cost.DominanceTests != 7 || sr.Cost.WindowQueries != 0 {
		t.Fatalf("node cost = %+v, want 7 dominance tests and no window query", sr.Cost)
	}
	if sr.NodeAccesses != 5 || sr.LeafScans != 3 || sr.TreePruned != 2 {
		t.Fatalf("tree counts = %d/%d/%d", sr.NodeAccesses, sr.LeafScans, sr.TreePruned)
	}
	if len(sr.LevelAccesses) != 2 || sr.LevelAccesses[0] != 3 || sr.LevelAccesses[1] != 2 {
		t.Fatalf("level counts = %v", sr.LevelAccesses)
	}
	if root := plan.Root; root.Cost.DominanceTests != 7 || root.Cost.WindowQueries != 1 || root.NodeAccesses != 5 {
		t.Fatalf("root counts = %+v, %d accesses", root.Cost, root.NodeAccesses)
	}
	if r, ok := sr.PruneRatio(); !ok || r != 0.6 {
		t.Fatalf("prune ratio = %v/%v", r, ok)
	}
	if plan.Shape != "mwq(saferegion[safe-region],corners[midpoint])" {
		t.Fatalf("shape = %q", plan.Shape)
	}
	if len(plan.Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q", plan.Fingerprint)
	}
	// Same inputs → same fingerprint; different rung → different.
	if fingerprintOf("mwq", 2, "exact", plan.Shape) != plan.Fingerprint {
		t.Fatal("fingerprint not deterministic")
	}
	if fingerprintOf("mwq", 2, "approx", plan.Shape) == plan.Fingerprint {
		t.Fatal("fingerprint ignores rung")
	}

	out := plan.StableString()
	for _, want := range []string{"plan mwq dims=2 rung=exact", "prune=60.0%", "acc=5 leaf=3", "rule=midpoint in=8 out=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "act=") || strings.Contains(out, "total=") {
		t.Fatalf("stable render leaks timings:\n%s", out)
	}
	if timed := plan.String(); !strings.Contains(timed, "act=") || !strings.Contains(timed, "total=") {
		t.Fatalf("timed render missing wall times:\n%s", timed)
	}
}

// TestPhaseOneSpanEverywhere: one Phase call is a trace span, a plan node and
// a pprof label under one name; the label is back to the caller's after End;
// and a hidden phase opens none of them while its flushes still reach the
// enclosing node.
func TestPhaseOneSpanEverywhere(t *testing.T) {
	tr := obs.NewTrace("mwq")
	b := NewBuilder("mwq", 2)
	ctx := With(obs.WithTrace(context.Background(), tr), b)
	pprof.Do(ctx, pprof.Labels("op", "mwq"), func(ctx context.Context) {
		pctx, sp := Phase(ctx, "mwq.corners", RuleMidpoint)
		if got, _ := pprof.Label(pctx, "phase"); got != "mwq.corners" {
			t.Errorf("phase label = %q", got)
		}
		if got, _ := pprof.Label(pctx, "op"); got != "mwq" {
			t.Errorf("op label lost: %q", got)
		}
		hctx := Hide(pctx)
		hidden, hsp := Phase(hctx, "mwp.frontier", RuleDSLWindow)
		if hsp != nil || hidden != hctx {
			t.Error("a hidden phase opened a span")
		}
		obs.Flush(hidden, &obs.Counts{CostSnapshot: obs.CostSnapshot{WindowQueries: 1}})
		hsp.End()
		sp.End()
	})
	plan := b.Finish("")
	if len(plan.Root.Children) != 1 || plan.Root.Children[0].Name != "mwq.corners" {
		t.Fatalf("plan shape = %s", plan.Shape)
	}
	if wq := plan.Root.Children[0].Cost.WindowQueries; wq != 1 {
		t.Fatalf("hidden work counted %d window queries in the enclosing node, want 1", wq)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "mwq.corners" {
		t.Fatalf("trace spans = %+v", spans)
	}
	if spans[0].End-spans[0].Start != plan.Root.Children[0].ActualNS {
		t.Fatalf("trace span %v and plan node %dns time different intervals", spans[0].Duration(), plan.Root.Children[0].ActualNS)
	}
}

// A hidden phase (the per-corner MWPs, batch questions) opens nothing and
// returns a nil Span, and the nil Span and nil Builder are no-ops: none of
// it allocates.
func TestDisabledPathIsNilAndAllocFree(t *testing.T) {
	ctx := Hide(context.Background())
	allocs := testing.AllocsPerRun(1000, func() {
		pctx, sp := Phase(ctx, "phase", RuleDSLWindow)
		if sp != nil || pctx != ctx {
			t.Fatal("a hidden phase opened a span")
		}
		sp.SetIn(3)
		sp.SetOut(1)
		sp.End()
		var b *Builder
		if b.Finish("exact") != nil {
			t.Fatal("a nil builder finished a plan")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled explain hook path allocates: %v allocs/op", allocs)
	}
}

// workPlan builds a one-phase plan whose root counts work dominance tests
// and which took ns of wall time.
func workPlan(work int, ns int64) *Plan {
	b := NewBuilder("mwq", 2)
	pctx, sp := Phase(With(context.Background(), b), "saferegion", RuleSafeRegion)
	sp.SetIn(4)
	sp.SetOut(2)
	obs.Flush(pctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{DominanceTests: uint64(work)}})
	sp.End()
	p := b.Finish("exact")
	p.TotalNS = ns
	return p
}

// TestStoreDriftDetection: a class whose counted work grows by 1.6× latches
// drift within driftMinRecent samples of the baseline freezing, and clears
// once its work is back at the baseline.
func TestStoreDriftDetection(t *testing.T) {
	s := NewStore()
	for i := 0; i < baselineN; i++ {
		if s.Observe(workPlan(100, 1e6)) {
			t.Fatal("drift during baseline")
		}
	}
	latchedAt := 0
	for i := 1; i <= driftMinRecent; i++ {
		if s.Observe(workPlan(160, 1e6)) {
			latchedAt = i
			break
		}
	}
	if latchedAt == 0 {
		t.Fatalf("1.6x counted work did not latch drift within %d samples", driftMinRecent)
	}
	if s.Drifting() != 1 {
		t.Fatalf("Drifting() = %d, want 1", s.Drifting())
	}
	for i := 0; i < ringSize; i++ {
		s.Observe(workPlan(100, 1e6))
	}
	if s.Drifting() != 0 {
		t.Fatalf("Drifting() after recovery = %d, want 0", s.Drifting())
	}
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("classes = %d, want 1", len(snaps))
	}
	if want := uint64(baselineN + latchedAt + ringSize); snaps[0].Count != want {
		t.Fatalf("count = %d, want %d", snaps[0].Count, want)
	}
}

// TestStoreDriftIgnoresLatency: a class that does the same counted work at
// 5× the latency, as under CPU contention, never latches drift; the
// latency percentiles still report the slowdown.
func TestStoreDriftIgnoresLatency(t *testing.T) {
	s := NewStore()
	for i := 0; i < baselineN; i++ {
		s.Observe(workPlan(100, 1e6))
	}
	for i := 0; i < 2*ringSize; i++ {
		if s.Observe(workPlan(100, 5e6)) {
			t.Fatalf("sample %d: identical work at 5x latency latched drift", i)
		}
	}
	if s.Drifting() != 0 {
		t.Fatalf("Drifting() = %d, want 0", s.Drifting())
	}
	if c := s.Snapshot()[0]; c.LatencyP95MS != 5 || c.CostP95 != 100 {
		t.Fatalf("latency p95 = %vms, cost p95 = %v; want 5ms and 100", c.LatencyP95MS, c.CostP95)
	}
}

// TestStoreBaselineCostP95: baseline_cost_p95 is absent until baselineN
// samples arrive, then reads the p95 of their counted work and stays frozen
// while the recent percentiles move.
func TestStoreBaselineCostP95(t *testing.T) {
	s := NewStore()
	for i := 1; i < baselineN; i++ {
		s.Observe(workPlan(i, 1e6))
	}
	raw, err := json.Marshal(s.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "baseline_cost_p95") {
		t.Fatalf("baseline reported before it froze: %s", raw)
	}
	s.Observe(workPlan(baselineN, 1e6))
	want := float64(baselineN*95/100 + 1) // the nearest-rank p95 of the costs 1..baselineN
	for i := 0; i < ringSize; i++ {
		s.Observe(workPlan(1000, 1e6))
	}
	c := s.Snapshot()[0]
	if c.BaselineCostP95 != want || c.CostP95 != 1000 {
		t.Fatalf("baseline cost p95 = %v, recent cost p95 = %v; want %v and 1000", c.BaselineCostP95, c.CostP95, want)
	}
	raw, err = json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), fmt.Sprintf(`"baseline_cost_p95":%v`, want)) {
		t.Fatalf("JSON lacks the frozen baseline %v: %s", want, raw)
	}
}

func TestStoreBounded(t *testing.T) {
	s := NewStore()
	for i := 0; i <= maxClasses; i++ {
		b := NewBuilder("op", i) // dims varies → distinct fingerprints
		s.Observe(b.Finish("exact"))
	}
	if s.Len() != maxClasses {
		t.Fatalf("Len = %d, want %d (bounded)", s.Len(), maxClasses)
	}
	if s.Overflow() != 1 {
		t.Fatalf("Overflow = %d, want 1", s.Overflow())
	}
}

func TestBuilderConcurrentSpans(t *testing.T) {
	b := NewBuilder("mwq", 2)
	ctx := With(context.Background(), b)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, sp := Phase(ctx, "worker", RuleDSLWindow)
				sp.SetIn(1)
				sp.SetOut(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	plan := b.Finish("exact")
	total := 0
	var count func(n *Node)
	count = func(n *Node) {
		total++
		for _, c := range n.Children {
			count(c)
		}
	}
	count(plan.Root)
	if total != 1+8*50 {
		t.Fatalf("nodes = %d, want %d", total, 1+8*50)
	}
}

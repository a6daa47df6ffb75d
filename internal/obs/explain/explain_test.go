package explain

import (
	"context"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestBuilderTreeAndDeltas(t *testing.T) {
	b := NewBuilder("mwq", 2, NewModel())
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
	if strings.Contains(out, "est=") {
		t.Fatalf("stable render leaks timings:\n%s", out)
	}
	if !strings.Contains(plan.String(), "est=") {
		t.Fatal("timed render missing estimates")
	}
}

// TestPhaseOneSpanEverywhere: one Phase call is a trace span, a plan node and
// a pprof label under one name; the label is back to the caller's after End;
// and a hidden phase opens none of them while its flushes still reach the
// enclosing node.
func TestPhaseOneSpanEverywhere(t *testing.T) {
	tr := obs.NewTrace("mwq")
	b := NewBuilder("mwq", 2, nil)
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

func TestModelCalibration(t *testing.T) {
	m := NewModel()
	before := m.Estimate(RuleDSLWindow, 10)
	// Feed consistently cheaper observations; the EWMA must pull the
	// estimate down.
	for i := 0; i < 100; i++ {
		m.Observe(RuleDSLWindow, 10, 1000) // 100 ns/unit
	}
	after := m.Estimate(RuleDSLWindow, 10)
	if after >= before {
		t.Fatalf("calibration did not converge down: before=%d after=%d", before, after)
	}
	if after < 900 || after > 3000 {
		t.Fatalf("calibrated estimate out of range: %d", after)
	}
	var nilModel *Model
	if nilModel.Estimate(RuleDSLWindow, 10) != 0 {
		t.Fatal("nil model must estimate 0")
	}
	nilModel.Observe(RuleDSLWindow, 1, 1) // must not panic
}

func TestStoreDriftDetection(t *testing.T) {
	s := NewStore(4)
	mkPlan := func(ns int64) *Plan {
		b := NewBuilder("mwq", 2, nil)
		_, sp := Phase(With(context.Background(), b), "saferegion", RuleSafeRegion)
		sp.SetIn(4)
		sp.SetOut(2)
		sp.End()
		p := b.Finish("exact")
		p.TotalNS = ns
		return p
	}
	// Baseline: 1ms-ish latencies.
	for i := 0; i < baselineN; i++ {
		if s.Observe(mkPlan(1e6)) {
			t.Fatal("drift during baseline")
		}
	}
	// Regression: 5ms. Needs driftMinRecent fresh samples before tripping.
	tripped := false
	for i := 0; i < ringSize; i++ {
		if s.Observe(mkPlan(5e6)) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("5x latency regression did not trip drift")
	}
	if s.Drifting() != 1 {
		t.Fatalf("Drifting() = %d, want 1", s.Drifting())
	}
	// Recovery: back to baseline clears the latch.
	for i := 0; i < ringSize; i++ {
		s.Observe(mkPlan(1e6))
	}
	if s.Drifting() != 0 {
		t.Fatalf("Drifting() after recovery = %d, want 0", s.Drifting())
	}
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("classes = %d, want 1", len(snaps))
	}
	if snaps[0].Count != baselineN+2*ringSize {
		t.Fatalf("count = %d", snaps[0].Count)
	}
	if snaps[0].PruneRatioP50 != 0.5 {
		t.Fatalf("prune ratio p50 = %v", snaps[0].PruneRatioP50)
	}
}

func TestStoreBounded(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 5; i++ {
		b := NewBuilder("op", i, nil) // dims varies → distinct fingerprints
		s.Observe(b.Finish("exact"))
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", s.Len())
	}
	if s.Overflow() != 3 {
		t.Fatalf("Overflow = %d, want 3", s.Overflow())
	}
}

func TestBuilderConcurrentSpans(t *testing.T) {
	b := NewBuilder("mwq", 2, NewModel())
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
	plan.Root.Walk(func(*Node) { total++ })
	if total != 1+8*50 {
		t.Fatalf("nodes = %d, want %d", total, 1+8*50)
	}
}

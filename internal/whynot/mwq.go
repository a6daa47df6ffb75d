package whynot

import (
	"context"
	"math"
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
)

// MWQCase distinguishes the two situations of Table I.
type MWQCase int

const (
	// CaseOverlap (C1): the why-not point's anti-DDR overlaps the safe
	// region, so moving only the query point suffices and the Eqn. (11)
	// cost is zero.
	CaseOverlap MWQCase = 1
	// CaseDisjoint (C2): the safe region and the anti-DDR are disjoint;
	// both the query point (within its safe region) and the why-not point
	// must move.
	CaseDisjoint MWQCase = 2
)

// MWQResult is the outcome of Algorithm 4.
type MWQResult struct {
	Case MWQCase
	// SafeRegion is the (exact or approximate) safe region used.
	SafeRegion region.Set
	// Overlap is SR(q) ∩ anti-DDR(c_t); non-empty exactly in case C1.
	Overlap region.Set
	// QStar is the chosen new query-point location. In case C1 it is the
	// point of the overlap region nearest to q; in case C2 it is the
	// safe-region corner whose induced why-not move is cheapest.
	QStar geom.Point
	// QCandidates are the evaluated q* options, cheapest first (by distance
	// from q in C1, by induced why-not cost in C2).
	QCandidates []Candidate
	// CtStar is the chosen new why-not-point location; equal to c_t with
	// zero cost in case C1.
	CtStar geom.Point
	// CtCandidates are the why-not-point options of the winning q* in case
	// C2 (single zero-cost entry in case C1), cheapest first.
	CtCandidates []Candidate
	// Cost is the Eqn. (11) objective: the normalised β-weighted movement
	// of the why-not point (query-point moves inside the safe region are
	// free per Eqn. (10)).
	Cost float64
	// AlreadyMember is true when c_t ∈ RSL(q) without any move.
	AlreadyMember bool
}

// MWQ is MWQCtx without a deadline.
func (e *Engine) MWQ(ct Item, q geom.Point, sr region.Set, opt Options) MWQResult {
	res, _ := e.MWQCtx(context.Background(), ct, q, sr, opt)
	return res
}

// MWQCtx implements Algorithm 4 (Modify Query and Why-not Point) given a
// precomputed safe region (exact from SafeRegionCtx or approximate from
// ApproxSafeRegionCtx; the paper reuses one safe region across many why-not
// questions on the same query). Checkpoints cover the membership probe, the
// anti-DDR construction, and every corner evaluation of the case-C2 loop
// (each of which runs a full MWP).
func (e *Engine) MWQCtx(ctx context.Context, ct Item, q geom.Point, sr region.Set, opt Options) (MWQResult, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return MWQResult{}, err
	}
	return e.mwq(ctx, ct, q, sr, opt)
}

// mwq runs Algorithm 4 as the mwq phase and its mwq.overlap and mwq.corners
// children. Per-corner MWP calls deliberately run hidden (explain.Hide) — a
// plan tree that grew one subtree per corner would make the plan shape (and
// so the query fingerprint) depend on the corner count instead of the
// pipeline structure; the corners phase aggregates them.
func (e *Engine) mwq(ctx context.Context, ct Item, q geom.Point, sr region.Set, opt Options) (MWQResult, error) {
	tr := obs.TraceFrom(ctx)
	ctx, spM := explain.Phase(ctx, "mwq", explain.RuleNone)
	defer spM.End()
	member, err := e.DB.WindowExistsCtx(ctx, ct.Point, q, e.exclude(ct))
	if err != nil {
		return MWQResult{}, err
	}
	if !member {
		tr.Event("mwq.case", "already a reverse-skyline member")
		return MWQResult{
			AlreadyMember: true,
			SafeRegion:    sr,
			QStar:         q.Clone(),
			CtStar:        ct.Point.Clone(),
			QCandidates:   []Candidate{{Point: q.Clone(), Cost: 0}},
			CtCandidates:  []Candidate{{Point: ct.Point.Clone(), Cost: 0}},
		}, nil
	}
	octx, spO := explain.Phase(ctx, "mwq.overlap", explain.RuleSafeRegion)
	spO.SetIn(len(sr))
	antiDDR, err := e.antiDDROf(octx, ct)
	if err != nil {
		spO.End()
		return MWQResult{}, err
	}
	// Only an overlap with non-empty interior counts as case C1: candidates
	// are infima of open regions, so a measure-zero (degenerate) overlap has
	// no strictly valid point arbitrarily close and must be handled as C2.
	overlap := positiveRects(sr.IntersectSet(antiDDR))
	spO.SetOut(len(overlap))
	spO.End()
	if !overlap.IsEmpty() {
		// Case C1 (steps 1–6): move q to the nearest point of each overlap
		// rectangle; the why-not point stays put and the cost is zero.
		tr.Eventf("mwq.case", "C1 overlap: %d rects", len(overlap))
		cands := make([]Candidate, 0, len(overlap))
		for _, r := range overlap {
			p := r.NearestPoint(q)
			cands = append(cands, Candidate{Point: p, Cost: e.costQ(q, p, opt)})
		}
		obs.Flush(ctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{CandidateEvaluations: uint64(len(cands))}})
		sortCandidates(cands)
		cands = dedupCandidates(cands)
		return MWQResult{
			Case:         CaseOverlap,
			SafeRegion:   sr,
			Overlap:      overlap,
			QStar:        cands[0].Point,
			QCandidates:  cands,
			CtStar:       ct.Point.Clone(),
			CtCandidates: []Candidate{{Point: ct.Point.Clone(), Cost: 0}},
			Cost:         0,
		}, nil
	}

	// Case C2 (steps 7–20): q may move only inside its safe region, so the
	// candidate q* positions are the safe-region rectangle corners closest
	// to c_t (non-dominated in the space transformed around c_t); for each,
	// Algorithm 1 moves the why-not point against that q*, and the cheapest
	// combination wins. Corners of degenerate (zero-volume) safe-region
	// rectangles are skipped — they have no achievable interior, so moving
	// there genuinely loses customers. q itself is always evaluated too —
	// staying put is trivially safe and guarantees the paper's
	// cost(MWQ) ≤ cost(MWP) property even when every corner is worse.
	corners := append(positiveRects(sr).Corners(), q.Clone())
	tr.Eventf("mwq.case", "C2 disjoint: %d safe-region corners", len(corners))
	ctx, spC := explain.Phase(ctx, "mwq.corners", explain.RuleMidpoint)
	spC.SetIn(len(corners))
	defer spC.End()
	cnt := obs.Counts{CostSnapshot: obs.CostSnapshot{SafeRegionVertices: uint64(len(corners))}}
	defer obs.Flush(ctx, &cnt)
	type scored struct {
		pt geom.Point
		tr geom.Point
	}
	ts := make([]scored, len(corners))
	for i, c := range corners {
		ts[i] = scored{pt: c, tr: c.Transform(ct.Point)}
	}
	// Keep corners whose transformed image is not dominated (Algorithm 4
	// steps 11–13).
	var qCands []scored
	for a, sa := range ts {
		dominated := false
		for b, sb := range ts {
			if a == b {
				continue
			}
			cnt.DominanceTests++
			if sb.tr.Dominates(sa.tr) {
				dominated = true
				break
			}
		}
		// The original q is kept even when dominated: dominance in the
		// transformed space does not order the induced MWP costs, and q is
		// the reference that bounds MWQ by MWP.
		if !dominated || sa.pt.Equal(q) {
			qCands = append(qCands, sa)
		}
	}
	cnt.PrunedEntries = uint64(len(ts) - len(qCands))

	_, chk := cancel.Bind(ctx)
	cctx := explain.Hide(ctx)
	bestCost := math.Inf(1)
	var bestQ geom.Point
	var bestCt []Candidate
	var qEvaluated []Candidate
	for _, qc := range qCands {
		if err := chk.Point(cancel.SiteMWQCorner); err != nil {
			return MWQResult{}, err
		}
		res, err := e.mwp(cctx, ct, qc.pt, opt)
		if err != nil {
			return MWQResult{}, err
		}
		cost := res.Best().Cost
		qEvaluated = append(qEvaluated, Candidate{Point: qc.pt, Cost: cost})
		if cost < bestCost {
			bestCost = cost
			bestQ = qc.pt
			bestCt = res.Candidates
		}
	}
	cnt.CandidateEvaluations = uint64(len(qEvaluated))
	spC.SetOut(len(qEvaluated))
	sort.SliceStable(qEvaluated, func(a, b int) bool { return qEvaluated[a].Cost < qEvaluated[b].Cost })
	return MWQResult{
		Case:         CaseDisjoint,
		SafeRegion:   sr,
		Overlap:      overlap,
		QStar:        bestQ,
		QCandidates:  qEvaluated,
		CtStar:       bestCt[0].Point,
		CtCandidates: bestCt,
		Cost:         bestCost,
	}, nil
}

// positiveRects keeps only rectangles with strictly positive volume.
func positiveRects(s region.Set) region.Set {
	var out region.Set
	for _, r := range s {
		if r.Area() > 0 {
			out = append(out, r)
		}
	}
	return out
}

// MWQExactCtx computes the exact safe region (SafeRegionCtx) and runs
// Algorithm 4 on it. rsl must be RSL(q) over the customers of interest. The
// safe-region construction — the step that is exponential in |RSL(q)| in
// the worst case — is fully checkpointed.
func (e *Engine) MWQExactCtx(ctx context.Context, ct Item, q geom.Point, rsl []Item, opt Options) (MWQResult, error) {
	return e.safeRegionThenMWQ(ctx, ct, q, rsl, nil, opt)
}

// MWQApprox is MWQApproxCtx without a deadline.
func (e *Engine) MWQApprox(ct Item, q geom.Point, rsl []Item, store *ApproxStore, opt Options) MWQResult {
	res, _ := e.MWQApproxCtx(context.Background(), ct, q, rsl, store, opt)
	return res
}

// MWQApproxCtx runs Algorithm 4 on the approximate safe region assembled
// from the pre-computed store (§VI.B.1) — the fast rung of the engine's
// degradation ladder.
func (e *Engine) MWQApproxCtx(ctx context.Context, ct Item, q geom.Point, rsl []Item, store *ApproxStore, opt Options) (MWQResult, error) {
	return e.safeRegionThenMWQ(ctx, ct, q, rsl, store, opt)
}

// safeRegionThenMWQ is MWQExactCtx (store == nil) and MWQApproxCtx: the
// safe-region phase, then Algorithm 4 on the calling goroutine.
func (e *Engine) safeRegionThenMWQ(ctx context.Context, ct Item, q geom.Point, rsl []Item, store *ApproxStore, opt Options) (MWQResult, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return MWQResult{}, err
	}
	sr, err := e.safeRegionPhase(ctx, q, rsl, store)
	if err != nil {
		return MWQResult{}, err
	}
	return e.mwq(ctx, ct, q, sr, opt)
}

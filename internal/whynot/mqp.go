package whynot

import (
	"context"
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
)

// MQPResult is the outcome of Algorithm 2.
type MQPResult struct {
	// Frontier is F = Λ ∩ DSL(c_t): the members of the window-query result
	// minimal under dynamic dominance w.r.t. c_t, extracted by an
	// index-level branch-and-bound without materialising Λ or DSL(c_t).
	Frontier []Item
	// Candidates are the proposed q* locations on the dynamic-skyline
	// frontier of c_t, sorted by ascending α-cost from q.
	Candidates []Candidate
	// AlreadyMember is true when c_t ∈ RSL(q) holds without any move.
	AlreadyMember bool
}

// Best returns the cheapest candidate.
func (r MQPResult) Best() Candidate { return r.Candidates[0] }

// MQP is MQPCtx without a deadline.
func (e *Engine) MQP(ct Item, q geom.Point, opt Options) MQPResult {
	res, _ := e.MQPCtx(context.Background(), ct, q, opt)
	return res
}

// MQPCtx implements Algorithm 2 (Modify Query Point): candidate locations q*
// of minimal movement such that the why-not point c_t enters RSL(q*). q* is
// moved onto the dynamic-skyline frontier of c_t. The merging of Eqns.
// (5)–(6) is performed in the space transformed around c_t and candidates
// are mapped back to the original space on q's side of c_t, which
// reproduces the paper's example exactly and remains correct when products
// surround c_t.
func (e *Engine) MQPCtx(ctx context.Context, ct Item, q geom.Point, opt Options) (MQPResult, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return MQPResult{}, err
	}
	ctx, sp := explain.Phase(ctx, "mqp", explain.RuleNone)
	defer sp.End()
	frontier, err := e.DB.WindowFrontierCtx(ctx, ct.Point, q, ct.Point, e.exclude(ct))
	if err != nil {
		return MQPResult{}, err
	}
	if len(frontier) == 0 {
		return MQPResult{
			AlreadyMember: true,
			Candidates:    []Candidate{{Point: q.Clone(), Cost: 0}},
		}, nil
	}

	i := opt.SortDim
	tq := q.Transform(ct.Point)

	// Transformed frontier points, sorted by the chosen dimension. They are
	// exactly the window-local part of DSL(c_t)'s staircase.
	trs := make([]geom.Point, len(frontier))
	for k, f := range frontier {
		trs[k] = f.Point.Transform(ct.Point)
	}
	trs = minimalCanonical(trs)
	sort.Slice(trs, func(a, b int) bool { return trs[a][i] < trs[b][i] })

	// Candidate transformed locations: first entry projected onto q's
	// transformed coordinates except dimension i (Eqn. (6), z_1), the
	// coordinate-wise maxima of successive pairs (Eqn. (5)), and the last
	// entry projected except in dimensions ≠ i (Eqn. (6), z_|M|).
	var canon []geom.Point
	first := tq.Clone()
	first[i] = trs[0][i]
	canon = append(canon, first)
	for k := 0; k+1 < len(trs); k++ {
		canon = append(canon, trs[k].Max(trs[k+1]))
	}
	last := trs[len(trs)-1].Clone()
	last[i] = tq[i]
	canon = append(canon, last)

	// Closure-validity filter: a transformed candidate z survives an
	// ε-contraction toward c_t iff for every frontier point s there is a
	// dimension with z_j ≤ s_j that either is strict or can become strict
	// under contraction (z_j > 0). A frontier point lying exactly on c_t's
	// coordinate in a dimension (s_j = 0) can never be escaped there.
	valid := canon[:0]
	for _, z := range canon {
		if transValid(z, trs) {
			valid = append(valid, z)
		}
	}
	if len(valid) == 0 {
		// Always-valid fallback: placing q* on c_t itself maps to the
		// transformed origin, which nothing strictly dominates.
		valid = append(valid, make(geom.Point, len(tq)))
	}

	cands := make([]Candidate, 0, len(valid))
	for _, m := range valid {
		p := geom.UnTransform(ct.Point, m, q)
		cands = append(cands, Candidate{Point: p, Cost: e.costQ(q, p, opt)})
	}
	obs.Flush(ctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{CandidateEvaluations: uint64(len(cands))}})
	sortCandidates(cands)
	return MQPResult{Frontier: frontier, Candidates: dedupCandidates(cands)}, nil
}

// transValid reports whether transformed candidate z lies in the closure of
// the non-dominated region of the transformed frontier points with an
// ε-contraction escape: some dimension must have z_j ≤ s_j with z_j > 0 or
// z_j < s_j.
func transValid(z geom.Point, frontier []geom.Point) bool {
	for _, s := range frontier {
		ok := false
		for j := range z {
			if z[j] <= s[j] && (z[j] > 0 || z[j] < s[j]) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// minimalCanonical keeps the antichain of minimal points (none weakly
// dominated by another from below), deduplicating equal points.
func minimalCanonical(pts []geom.Point) []geom.Point {
	var out []geom.Point
	for a, pa := range pts {
		covered := false
		for b, pb := range pts {
			if a == b {
				continue
			}
			if pb.WeaklyDominates(pa) && !pb.Equal(pa) {
				covered = true
				break
			}
			if pb.Equal(pa) && b < a {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, pa)
		}
	}
	return out
}

// ValidateQueryMoveCtx reports whether moving the query point to cand
// admits c_t into RSL(cand) after an ε-contraction toward c_t in the
// transformed space (candidates lie on the closed dynamic-skyline boundary
// of c_t).
func (e *Engine) ValidateQueryMoveCtx(ctx context.Context, ct Item, cand geom.Point, eps float64) (bool, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return false, err
	}
	nudged := nudgeToward(cand, ct.Point, eps)
	found, err := e.DB.WindowExistsCtx(ctx, ct.Point, nudged, e.exclude(ct))
	if err != nil {
		return false, err
	}
	return !found, nil
}

// MQPTotalCost is MQPTotalCostCtx without a deadline.
func (e *Engine) MQPTotalCost(q, qStar geom.Point, rsl []Item, sr region.Set, opt Options) float64 {
	total, _ := e.MQPTotalCostCtx(context.Background(), q, qStar, rsl, sr, opt)
	return total
}

// MQPTotalCostCtx computes the experimental cost of a refined query point q*
// from §VI.A: α·|q' − q*| where q' is the point of the safe region sr
// closest to q*, plus, for every original reverse-skyline customer lost by
// the move, the β-cost of winning that customer back via MWP against q*.
// rsl must be RSL(q) over the customers of interest. A nil sr charges the
// full distance from q (the safe region degenerates to {q}). The cost
// charges one MWP per lost customer, so it can be as expensive as |RSL|
// why-not questions; those MWPs add no plan nodes.
func (e *Engine) MQPTotalCostCtx(ctx context.Context, q, qStar geom.Point, rsl []Item, sr region.Set, opt Options) (float64, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return 0, err
	}
	_, chk := cancel.Bind(ctx)
	mctx := explain.Hide(ctx)
	anchor := q
	if len(sr) > 0 {
		if p, _, ok := sr.NearestPoint(qStar, opt.WeightsQ); ok {
			anchor = p
		}
	}
	total := e.costQ(anchor, qStar, opt)
	for _, c := range rsl {
		if err := chk.Point(cancel.SiteCustomer); err != nil {
			return 0, err
		}
		lost, err := e.DB.WindowExistsCtx(ctx, c.Point, qStar, e.exclude(c))
		if err != nil {
			return 0, err
		}
		if !lost {
			continue // still a reverse-skyline point of q*
		}
		res, err := e.mwp(mctx, c, qStar, opt)
		if err != nil {
			return 0, err
		}
		total += res.Best().Cost
	}
	return total, nil
}

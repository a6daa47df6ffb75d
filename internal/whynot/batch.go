package whynot

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/region"
)

// MWQBatch answers one why-not question per customer against the same query
// point, computing the safe region once — the reuse the paper highlights in
// §VI.B ("we do not need to recompute it to answer another why-not question
// for the same query point"). Results are positionally aligned with cts.
func (e *Engine) MWQBatch(cts []Item, q geom.Point, rsl []Item, opt Options) []MWQResult {
	sr := e.SafeRegion(q, rsl)
	return e.MWQBatchWithRegion(cts, q, sr, opt)
}

// MWQBatchCtx is MWQBatch with deadline/cancellation support.
func (e *Engine) MWQBatchCtx(ctx context.Context, cts []Item, q geom.Point, rsl []Item, opt Options) ([]MWQResult, error) {
	if _, err := entry(ctx); err != nil {
		return nil, err
	}
	sr, err := e.safeRegionPhase(ctx, q, rsl, nil)
	if err != nil {
		return nil, err
	}
	return e.mwqBatch(ctx, cts, q, sr, opt)
}

// MWQBatchWithRegion runs Algorithm 4 for every customer against a shared
// precomputed safe region.
func (e *Engine) MWQBatchWithRegion(cts []Item, q geom.Point, sr region.Set, opt Options) []MWQResult {
	out, _ := e.mwqBatch(nil, cts, q, sr, opt)
	return out
}

// MWQBatchWithRegionCtx is MWQBatchWithRegion with deadline/cancellation
// support: the checkpoint fires once per why-not question on top of the
// checkpoints inside each question.
func (e *Engine) MWQBatchWithRegionCtx(ctx context.Context, cts []Item, q geom.Point, sr region.Set, opt Options) ([]MWQResult, error) {
	if _, err := entry(ctx); err != nil {
		return nil, err
	}
	return e.mwqBatch(ctx, cts, q, sr, opt)
}

// mwqBatch answers the questions on the DB's workers. Each question only
// reads the index and the shared safe region, and results land in per-index
// slots, so the answers are the same at every worker count. The first error
// wins and the batch returns nil.
func (e *Engine) mwqBatch(ctx context.Context, cts []Item, q geom.Point, sr region.Set, opt Options) ([]MWQResult, error) {
	out := make([]MWQResult, len(cts))
	// The trace is shared across workers: span/event recording is lock-free
	// and safe for concurrent writers.
	tr := obs.TraceFrom(ctx)
	err := exec.ForEach(ctx, len(cts), e.DB.Workers(), cancel.SiteBatchItem, func(chk *cancel.Checker, i int) error {
		res, err := e.mwq(chk, tr, nil, cts[i], q, sr, opt)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

package whynot

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs/explain"
)

// MWQBatchCtx answers one why-not question per customer against the same
// query point, computing the safe region once — the reuse the paper
// highlights in §VI.B ("we do not need to recompute it to answer another
// why-not question for the same query point"). Results are positionally
// aligned with cts. The questions run on the DB's workers, each with a
// checkpoint on top of the checkpoints inside it. Each question only reads
// the index and the shared safe region, and results land in per-index
// slots, so the answers are the same at every worker count. The first error
// wins and the batch returns nil.
func (e *Engine) MWQBatchCtx(ctx context.Context, cts []Item, q geom.Point, rsl []Item, opt Options) ([]MWQResult, error) {
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, err
	}
	sr, err := e.safeRegionPhase(ctx, q, rsl, nil)
	if err != nil {
		return nil, err
	}
	out := make([]MWQResult, len(cts))
	// The questions run hidden: neither the plan shape nor the trace may
	// depend on the number of questions. Their work is still counted, in the
	// query's tally.
	err = exec.ForEach(explain.Hide(ctx), len(cts), e.DB.Workers(), cancel.SiteBatchItem, func(ctx context.Context, i int) error {
		res, err := e.mwq(ctx, cts[i], q, sr, opt)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Package engine wraps the why-not query algorithms with the operational
// machinery a long-running service needs: per-query deadlines, structured
// error reporting with panic recovery, and a graceful degradation ladder
// that trades answer optimality for bounded latency.
//
// The ladder for a why-not question (Runner.MWQ) has three rungs:
//
//  1. exact MWQ — Algorithm 4 on the exact safe region (Algorithm 3), whose
//     construction is worst-case exponential in |RSL(q)|;
//  2. approximate MWQ — Algorithm 4 on the §VI.B.1 precomputed approximate
//     safe region: a valid but possibly costlier answer, orders of magnitude
//     faster (requires a Config.Store);
//  3. MWP — Algorithm 1 alone: move only the why-not point. Always valid,
//     never cheaper than MWQ (the paper's cost(MWQ) ≤ cost(MWP) bound),
//     and by far the cheapest to compute.
//
// Each rung gets a fresh Config.Timeout budget derived from the caller's
// context, so one slow rung cannot starve its fallback; the caller's own
// deadline still bounds the whole ladder. Answers from rung 2 or 3 are
// tagged Degraded so callers can distinguish best-effort from optimal.
//
// Everything runs synchronously on the caller's goroutine — cooperative
// checkpoints (package cancel) make watchdog goroutines unnecessary, so a
// degraded or failed query leaks nothing.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/whynot"
)

// QueryError is the structured failure report of a guarded query: which
// operation failed, the underlying error, and — when the failure was a panic
// somewhere in the query algorithms — the recovered value and stack.
// errors.Is/As see through it via Unwrap, so context.DeadlineExceeded and
// context.Canceled remain detectable.
type QueryError struct {
	// Op names the failed operation (e.g. "exact MWQ").
	Op string
	// Err is the underlying cause. For recovered panics it is a synthetic
	// error carrying the panic message.
	Err error
	// Panic is the recovered panic value, nil for ordinary errors.
	Panic any
	// Stack is the goroutine stack captured at recovery time, nil for
	// ordinary errors.
	Stack []byte
}

func (e *QueryError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("engine: %s: panic: %v", e.Op, e.Panic)
	}
	return fmt.Sprintf("engine: %s: %v", e.Op, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// Rung identifies which level of the degradation ladder produced an answer.
type Rung int

const (
	// RungExact is Algorithm 4 over the exact safe region.
	RungExact Rung = iota
	// RungApprox is Algorithm 4 over the precomputed approximate safe
	// region.
	RungApprox
	// RungMWP is the Algorithm 1 fallback: only the why-not point moves.
	RungMWP
)

func (r Rung) String() string {
	switch r {
	case RungExact:
		return "exact"
	case RungApprox:
		return "approx"
	case RungMWP:
		return "mwp"
	}
	return fmt.Sprintf("rung(%d)", int(r))
}

// ErrRungSkipped is the cause recorded when a RungGate vetoes a rung without
// running it. It participates in the normal degradation flow: a skipped rung
// falls through to the next one exactly like a failed rung, and a ladder whose
// every rung was vetoed returns an error for which
// errors.Is(err, ErrRungSkipped) holds.
var ErrRungSkipped = errors.New("rung skipped by gate")

// RungGate lets a policy object (typically a circuit breaker, see
// internal/server) veto ladder rungs before they run and observe the outcome
// of the rungs that do run. Implementations must be safe for concurrent use:
// one gate is shared by every in-flight query of a service.
type RungGate interface {
	// Allow reports whether the rung may execute now. Returning false skips
	// the rung: the ladder records a degradation with reason "skipped" and
	// falls through to the next rung.
	Allow(r Rung) bool
	// Record observes the outcome of a rung that executed (err == nil means
	// success). It is not called for vetoed rungs, nor when the caller's own
	// context was already dead by the end of the rung — a caller that gave up
	// says nothing about the rung's health.
	Record(r Rung, err error)
}

// Metrics aggregates the Runner's operational counters. All fields are
// nil-safe: a nil *Metrics (the default) makes every recording a no-op, so
// instrumentation costs nothing when disabled.
type Metrics struct {
	// RungAttempts counts ladder rung executions by rung name
	// (exact/approx/mwp, plus the op string for Runner.Run calls).
	RungAttempts *obs.LabeledCounter
	// RungFailures counts rung executions that returned an error, by rung.
	RungFailures *obs.LabeledCounter
	// Degradations counts fall-throughs to a cheaper rung by failure reason
	// (deadline, canceled, panic, error).
	Degradations *obs.LabeledCounter
	// RungDuration observes wall-clock seconds per rung execution,
	// successful or not.
	RungDuration *obs.Histogram
}

// NewMetrics builds a Metrics bundle registered under reg (engine_* names).
// A nil registry returns a valid bundle whose recordings still work but are
// not exported anywhere.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return &Metrics{
			RungAttempts: obs.NewLabeledCounter("rung"),
			RungFailures: obs.NewLabeledCounter("rung"),
			Degradations: obs.NewLabeledCounter("reason"),
			RungDuration: obs.NewHistogram(obs.DurationBuckets()),
		}
	}
	return &Metrics{
		RungAttempts: reg.LabeledCounter("engine_rung_attempts_total",
			"Degradation-ladder rung executions by rung.", "rung"),
		RungFailures: reg.LabeledCounter("engine_rung_failures_total",
			"Rung executions that returned an error, by rung.", "rung"),
		Degradations: reg.LabeledCounter("engine_degradations_total",
			"Fall-throughs to a cheaper rung by failure reason.", "reason"),
		RungDuration: reg.Histogram("engine_rung_duration_seconds",
			"Wall-clock duration of each rung execution.", obs.DurationBuckets()),
	}
}

// rungAttempt records the start of one rung execution and returns a closure
// that records its outcome. Nil-safe on m.
func (m *Metrics) rungAttempt(rung string) func(err error) {
	if m == nil {
		return func(error) {}
	}
	m.RungAttempts.With(rung).Inc()
	start := obs.Now()
	return func(err error) {
		m.RungDuration.ObserveSince(start)
		if err != nil {
			m.RungFailures.With(rung).Inc()
		}
	}
}

// degradeReason classifies why a rung failed, for the degradation counters
// and trace events.
func degradeReason(err error) string {
	var qe *QueryError
	switch {
	case errors.As(err, &qe) && qe.Panic != nil:
		return "panic"
	case errors.Is(err, ErrRungSkipped):
		return "skipped"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// Config tunes a Runner. It holds no worker count: the exact and
// approximate rungs fan their per-member anti-dominance regions out over the
// workers of the engine's database (rskyline.DB.SetWorkers, which the repro
// facade sets from DBOptions.Parallelism). The cooperative checkpoints keep
// firing inside the pool, so per-rung timeouts and fault injection behave
// the same at every worker count.
type Config struct {
	// Timeout is the per-rung budget; each rung of the ladder gets a fresh
	// timeout derived from the caller's context. Zero means no per-rung
	// deadline (the caller's context still applies).
	Timeout time.Duration
	// Degrade enables the ladder: when the exact rung fails and the
	// caller's context still has budget, fall through to cheaper rungs
	// instead of returning the error.
	Degrade bool
	// Store enables the approximate rung; nil skips straight from exact to
	// MWP.
	Store *whynot.ApproxStore
	// Options are passed to the underlying algorithms.
	Options whynot.Options
	// Metrics, when non-nil, receives per-rung attempt/failure/duration and
	// degradation recordings.
	Metrics *Metrics
	// Gate, when non-nil, is consulted before each ladder rung (Allow) and
	// after each executed rung (Record). A vetoed rung is skipped as if it had
	// failed with ErrRungSkipped, which lets a circuit breaker stop hammering
	// a rung the engine keeps failing while the cheaper rungs continue to
	// serve.
	Gate RungGate
}

// Runner executes queries under Config's deadline, recovery, and degradation
// policy.
type Runner struct {
	Engine *whynot.Engine
	Cfg    Config
}

// NewRunner builds a Runner over a why-not engine.
func NewRunner(e *whynot.Engine, cfg Config) *Runner {
	return &Runner{Engine: e, Cfg: cfg}
}

// Answer is a query result plus provenance: which rung produced it and
// whether it is a degraded (valid but possibly suboptimal) answer.
type Answer struct {
	Result whynot.MWQResult
	// Rung is the ladder level that produced Result.
	Rung Rung
	// Degraded is true when Result did not come from the exact rung.
	Degraded bool
}

// MWQ answers the why-not question for ct against q with rsl = RSL(q),
// walking the degradation ladder described in the package comment. The
// returned error (always a *QueryError, possibly joining one failure per
// attempted rung) unwraps to ctx's error when the budget ran out.
func (r *Runner) MWQ(ctx context.Context, ct whynot.Item, q geom.Point, rsl []whynot.Item) (Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var errs []error

	var res whynot.MWQResult
	err := r.gatedRung(ctx, RungExact, "exact MWQ", func(rctx context.Context) error {
		var e error
		res, e = r.Engine.MWQExactCtx(rctx, ct, q, rsl, r.Cfg.Options)
		return e
	})
	if err == nil {
		return Answer{Result: res, Rung: RungExact}, nil
	}
	errs = append(errs, err)

	if !r.Cfg.Degrade || ctx.Err() != nil {
		return Answer{}, r.ladderExhausted(ctx, err)
	}
	r.degraded(ctx, "exact", err)

	if r.Cfg.Store != nil {
		err = r.gatedRung(ctx, RungApprox, "approximate MWQ", func(rctx context.Context) error {
			var e error
			res, e = r.Engine.MWQApproxCtx(rctx, ct, q, rsl, r.Cfg.Store, r.Cfg.Options)
			return e
		})
		if err == nil {
			return Answer{Result: res, Rung: RungApprox, Degraded: true}, nil
		}
		errs = append(errs, err)
		if ctx.Err() != nil {
			return Answer{}, r.ladderExhausted(ctx, ladderError(errs))
		}
		r.degraded(ctx, "approx", err)
	}

	var mres whynot.MWPResult
	err = r.gatedRung(ctx, RungMWP, "MWP fallback", func(rctx context.Context) error {
		var e error
		mres, e = r.Engine.MWPCtx(rctx, ct, q, r.Cfg.Options)
		return e
	})
	if err == nil {
		return Answer{Result: mwpAsMWQ(ct, q, mres), Rung: RungMWP, Degraded: true}, nil
	}
	errs = append(errs, err)
	return Answer{}, r.ladderExhausted(ctx, ladderError(errs))
}

// degraded records one fall-through to a cheaper rung: the degradation
// counter, the Runner's by-reason counter, and a trace event.
func (r *Runner) degraded(ctx context.Context, rung string, err error) {
	reason := degradeReason(err)
	obs.Flush(ctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{Degradations: 1}})
	if m := r.Cfg.Metrics; m != nil {
		m.Degradations.With(reason).Inc()
	}
	obs.TraceFrom(ctx).Eventf("degrade", "%s rung failed (%s), falling through", rung, reason)
}

// ladderExhausted accounts for a query that returns no answer at all; a
// caller-cancelled context counts toward the cancellation counter.
func (r *Runner) ladderExhausted(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		obs.Flush(ctx, &obs.Counts{CostSnapshot: obs.CostSnapshot{Cancellations: 1}})
	}
	return err
}

// gatedRung is runRung behind the Config.Gate policy: a vetoed rung returns
// ErrRungSkipped without executing (the ladder treats it like any other rung
// failure), and executed rungs report their outcome back to the gate unless
// the caller's context died underneath them.
func (r *Runner) gatedRung(ctx context.Context, rung Rung, op string, fn func(context.Context) error) error {
	g := r.Cfg.Gate
	if g == nil {
		return r.runRung(ctx, op, rung.String(), fn)
	}
	if !g.Allow(rung) {
		obs.TraceFrom(ctx).Eventf("gate", "%s rung vetoed", rung)
		return &QueryError{Op: op, Err: ErrRungSkipped}
	}
	err := r.runRung(ctx, op, rung.String(), fn)
	if err == nil || ctx.Err() == nil {
		g.Record(rung, err)
	}
	return err
}

// Run executes an arbitrary query function under the Runner's per-attempt
// budget and panic recovery (no degradation — fn is opaque). The context
// passed to fn carries the derived deadline.
func (r *Runner) Run(ctx context.Context, op string, fn func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.runRung(ctx, op, op, fn)
}

// runRung gives fn a fresh timeout budget and converts any failure — error
// or panic — into a *QueryError. rung names the execution for metrics and
// its phase ("rung.<rung>": a trace span, a plan node, a pprof label).
func (r *Runner) runRung(ctx context.Context, op, rung string, fn func(context.Context) error) (err error) {
	done := r.Cfg.Metrics.rungAttempt(rung)
	ctx, sp := explain.Phase(ctx, "rung."+rung, explain.RuleNone)
	rctx := ctx
	if r.Cfg.Timeout > 0 {
		var cancelBudget context.CancelFunc
		rctx, cancelBudget = context.WithTimeout(ctx, r.Cfg.Timeout)
		defer cancelBudget()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &QueryError{
				Op:    op,
				Err:   fmt.Errorf("panic: %v", p),
				Panic: p,
				Stack: debug.Stack(),
			}
		}
		sp.End()
		done(err)
	}()
	// pprof.Do adds the op and rung labels to the phase label for the
	// duration of the rung (and, via the context, for the exec workers it
	// fans out to), so CPU profiles from the DebugMux segment by operation
	// and ladder rung; nested phases replace the phase label only.
	var e error
	pprof.Do(rctx, pprof.Labels("op", op, "rung", rung), func(lctx context.Context) {
		e = fn(lctx)
	})
	if e != nil {
		var qe *QueryError
		if errors.As(e, &qe) {
			return e
		}
		return &QueryError{Op: op, Err: e}
	}
	return nil
}

// ladderError bundles the per-rung failures of an exhausted ladder. A single
// failure is returned as-is; several are joined so errors.Is finds every
// cause.
func ladderError(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	return &QueryError{Op: "degradation ladder", Err: errors.Join(errs...)}
}

// mwpAsMWQ shapes an Algorithm 1 answer as an MWQResult so ladder callers
// get a uniform type: q stays put (its "safe region" degenerates to {q}, the
// always-safe position) and only the why-not point moves, which is exactly
// Table I's case C2 with the trivial safe region.
func mwpAsMWQ(ct whynot.Item, q geom.Point, res whynot.MWPResult) whynot.MWQResult {
	best := res.Best()
	return whynot.MWQResult{
		Case:          whynot.CaseDisjoint,
		QStar:         q.Clone(),
		QCandidates:   []whynot.Candidate{{Point: q.Clone(), Cost: best.Cost}},
		CtStar:        best.Point,
		CtCandidates:  res.Candidates,
		Cost:          best.Cost,
		AlreadyMember: res.AlreadyMember,
	}
}

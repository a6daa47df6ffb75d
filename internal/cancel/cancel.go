// Package cancel provides the cooperative-cancellation checkpoints threaded
// through the whole query stack (R-tree traversals, skyline loops, safe-region
// construction, the why-not algorithms).
//
// The design goal is that deadline overruns cost microseconds while the happy
// path costs almost nothing: a Checker polls the underlying context only once
// every stride checkpoint hits (a counter increment and a branch otherwise),
// and checkpoints sit at node-visit / candidate-expansion granularity, never
// per point. A nil *Checker is valid everywhere and reduces every checkpoint
// to a nil check.
//
// The context is the only carrier of a query's cancellation state. An
// operation's call boundary binds the calling goroutine's Checker into the
// context (Enter, Bind), every layer below looks it up once per call (Bind
// again, which finds and reuses it), and the index, skyline and region loops
// take the checker itself so no checkpoint pays a context lookup. The
// binding rules:
//
//   - one Checker per goroutine per query: nested calls on one goroutine
//     share it, so hook visit numbers and the stride cadence follow the
//     query, not the call graph;
//   - a Checker never crosses goroutines: a worker starting under a bound
//     context binds its own with Fork;
//   - a bound Checker is reused only under the same cancellation source: a
//     context derived later with its own Done channel (a tighter deadline)
//     or its own hook gets a fresh Checker, so the tighter deadline is never
//     ignored;
//   - a context that can never be cancelled and carries no hook binds
//     nothing, and its checkpoints stay nil checks.
//
// Checkpoints also consult an optional fault-injection Hook carried by the
// context (see internal/engine/faultinject): tests use it to trigger
// slowdowns, panics and cancellations deterministically at named sites inside
// each algorithm. When a hook is installed the context is polled at every
// checkpoint so a hook-triggered cancellation is observed immediately.
package cancel

import "context"

// DefaultStride is how many checkpoint hits pass between context polls when
// the context does not override it via WithStride.
const DefaultStride = 64

// Checkpoint site names. Fault-injection rules match on these, so each
// algorithmically distinct location gets its own stable name.
const (
	// SiteRTreeNode fires once per R-tree node visited by any traversal
	// (window search, existence probe, best-first, guided search).
	SiteRTreeNode = "rtree.node"
	// SiteCustomer fires once per customer in reverse-skyline verification
	// loops (ReverseSkyline, filtered/mono/BBRS variants, LostCustomers).
	SiteCustomer = "rskyline.customer"
	// SiteSafeRegion fires once per reverse-skyline member whose anti-DDR is
	// intersected into the exact safe region (Algorithm 3's outer loop) and
	// throughout the rectangle-set algebra each member triggers (anti-DDR
	// corner construction, pairwise intersection, pruning) — a single member's
	// region work can dwarf the whole outer loop, so those inner loops poll
	// the same site.
	SiteSafeRegion = "saferegion.customer"
	// SiteApproxSafeRegion is SiteSafeRegion's counterpart in the
	// approximate (store-backed) safe-region assembly of §VI.B.1, with the
	// same inner-loop coverage.
	SiteApproxSafeRegion = "saferegion.approx"
	// SiteMWQCorner fires once per safe-region corner evaluated by
	// Algorithm 4's case-C2 loop (each evaluation runs a full MWP).
	SiteMWQCorner = "mwq.corner"
	// SiteAntiDDR fires throughout the rectangle-set construction of a
	// single anti-dominance region computed outside safe-region assembly
	// (Algorithm 4's anti-DDR of the why-not customer). It is distinct from
	// the safe-region sites because every rung of the degradation ladder
	// runs it: a fault rule targeting one rung's construction must not fire
	// here.
	SiteAntiDDR = "mwq.antiddr"
	// SiteBatchItem fires once per why-not question in batch mode.
	SiteBatchItem = "batch.item"
	// SiteStoreBuild fires once per customer during approximate-store
	// precomputation.
	SiteStoreBuild = "store.customer"
)

// Hook observes every checkpoint hit. Implementations may sleep (injected
// slowdown), panic (injected crash) or cancel the query's context; n is the
// checker's monotone hit count, 1-based. Hooks must be safe for concurrent
// use: parallel batch workers share one hook instance.
type Hook interface {
	Visit(site string, n uint64)
}

type ctxKey int

const (
	sourceKey ctxKey = iota
	strideKey
)

// source is the one context value that carries a query's cancellation
// state: the hook in force and, once Bind ran, the Checker bound for it.
// WithHook and Bind share the key, so the innermost source is always the
// current one: a checker bound before a later WithHook is shadowed, never
// reused with the wrong hook.
type source struct {
	hook Hook
	chk  *Checker
}

func sourceFrom(ctx context.Context) *source {
	s, _ := ctx.Value(sourceKey).(*source)
	return s
}

// WithHook returns a context carrying a fault-injection hook; every Checker
// bound under the returned context consults it at each checkpoint.
func WithHook(ctx context.Context, h Hook) context.Context {
	return context.WithValue(ctx, sourceKey, &source{hook: h})
}

// WithStride overrides the checkpoint-to-context-poll ratio for checkers
// built from the returned context. n < 1 is treated as 1 (poll every hit);
// tests use small strides for tight cancellation bounds.
func WithStride(ctx context.Context, n uint64) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, strideKey, n)
}

func strideFrom(ctx context.Context) uint64 {
	if n, ok := ctx.Value(strideKey).(uint64); ok {
		return n
	}
	return DefaultStride
}

// Checker is the per-query cancellation probe. It is deliberately not safe
// for concurrent use — each goroutine binds its own (Bind, Fork); the
// underlying context and hook may be shared freely.
type Checker struct {
	ctx    context.Context
	done   <-chan struct{}
	hook   Hook
	stride uint64
	n      uint64
	err    error
}

// Enter is the guard at the call boundary of a query operation: a context
// that is already done is rejected with its error before any work, and an
// active one gets the calling goroutine's Checker bound (Bind) for every
// layer below to share.
func Enter(ctx context.Context) (context.Context, error) {
	if err := ctx.Err(); err != nil {
		return ctx, err
	}
	ctx, _ = Bind(ctx)
	return ctx, nil
}

// Bind returns the calling goroutine's Checker for ctx and a context
// carrying it. A Checker already bound in ctx is reused when it was built
// from ctx's own Done channel and hook; otherwise a fresh one is bound. A
// context that can never be cancelled and carries no hook binds nothing:
// Bind returns ctx unchanged and the zero-overhead nil Checker.
//
// A bound context belongs to the goroutine that bound it. Hand work under it
// to another goroutine only through Fork.
func Bind(ctx context.Context) (context.Context, *Checker) {
	s := sourceFrom(ctx)
	done := ctx.Done()
	if s != nil && s.chk != nil && s.chk.done == done {
		return ctx, s.chk
	}
	return bind(ctx, s, done)
}

// Fork is Bind for a goroutine starting work under ctx: it always binds a
// fresh Checker, since one found in ctx belongs to the goroutine that bound
// it.
func Fork(ctx context.Context) (context.Context, *Checker) {
	return bind(ctx, sourceFrom(ctx), ctx.Done())
}

func bind(ctx context.Context, s *source, done <-chan struct{}) (context.Context, *Checker) {
	var hook Hook
	if s != nil {
		hook = s.hook
	}
	if done == nil && hook == nil {
		return ctx, nil
	}
	chk := &Checker{ctx: ctx, done: done, hook: hook, stride: strideFrom(ctx)}
	return context.WithValue(ctx, sourceKey, &source{hook: hook, chk: chk}), chk
}

// Point is the checkpoint. It returns the context's error once cancellation
// has been observed (sticky thereafter) and nil before that. Site names the
// checkpoint location for fault injection.
func (c *Checker) Point(site string) error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.n++
	if c.hook != nil {
		// The hook may sleep, panic, or cancel the context; poll immediately
		// afterwards so injected cancellations are observed deterministically.
		c.hook.Visit(site, c.n)
		return c.poll()
	}
	if c.n%c.stride == 0 {
		return c.poll()
	}
	return nil
}

func (c *Checker) poll() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		c.err = c.ctx.Err()
	default:
	}
	return c.err
}

// Err returns the cancellation error observed by an earlier Point, or nil.
// It never polls the context itself, so a traversal that aborted because a
// callback returned false is distinguishable from one that was cancelled.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// Visits returns the number of checkpoint hits so far (test instrumentation).
func (c *Checker) Visits() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

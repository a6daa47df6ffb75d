// Package exec is the shared parallel-execution substrate of the query
// engine: a context-aware worker pool for the per-customer loops that
// dominate reverse-skyline and why-not workloads, plus a concurrency-safe
// memoisation cache (cache.go) for the per-customer structures those loops
// recompute.
//
// Every fan-out in the repository — reverse-skyline verification, safe-region
// anti-DDR construction, batch why-not answering, approximate-store
// precomputation — goes through ForEach, so the cancellation, first-error and
// panic-propagation semantics are identical everywhere:
//
//   - each worker goroutine builds its own cancel.Checker from the shared
//     context (Checkers are deliberately single-goroutine), so deadlines and
//     fault-injection hooks keep working inside parallel sections;
//   - the first error wins and stops further work; remaining jobs drain
//     without running;
//   - a panic in any worker is re-raised, with its original value, on the
//     calling goroutine after all workers have exited, so recovery
//     middleware above the pool still sees it, reads the same at every
//     worker count, and no goroutine leaks;
//   - one worker runs the jobs inline on the calling goroutine (ForEachChecked
//     keeps using the caller's checker), so a one-worker fan-out is exactly
//     the sequential loop and no operation needs a second body for it.
package exec

import (
	"context"
	"runtime"
	"runtime/pprof"

	"repro/internal/cancel"
	"repro/internal/obs"
)

// Resolve maps a workers knob onto an actual worker count for n jobs:
// 0 or negative means GOMAXPROCS, and the count never exceeds n (spawning
// more goroutines than jobs only costs scheduling).
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(chk, i) for every i in [0, n), fanned out over the given
// number of worker goroutines (0 = GOMAXPROCS, capped at n). Before each job
// the per-worker checker fires a checkpoint at site, so deadlines and
// fault-injection rules behave as in the sequential loops. The first error
// returned by any fn stops the pool and is returned; a panic in any fn is
// re-raised, unchanged, on the calling goroutine once every worker has
// drained.
//
// fn must be safe to call concurrently for distinct i; writes to shared
// output should go to per-index slots (out[i] = ...), which needs no locking.
func ForEach(ctx context.Context, n, workers int, site string, fn func(chk *cancel.Checker, i int) error) error {
	return forEach(ctx, nil, n, workers, site, fn)
}

// ForEachChecked is ForEach for call sites that hold a *cancel.Checker
// rather than a context (the internal checked paths). The workers are built
// from the checker's underlying context, so hooks and deadlines carry over;
// with one worker the jobs run on chk itself, exactly as the caller's own
// loop would.
func ForEachChecked(chk *cancel.Checker, n, workers int, site string, fn func(chk *cancel.Checker, i int) error) error {
	return forEach(chk.Context(), chk, n, workers, site, fn)
}

// forEach is the shared body. chk, when non-nil, is the caller's checker for
// ctx and serves the inline path; nil builds one from ctx (a nil checker's
// context is nil too, so both yield the same zero-overhead checker).
func forEach(ctx context.Context, chk *cancel.Checker, n, workers int, site string, fn func(chk *cancel.Checker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		// The context-free public API funnels here with a nil context;
		// pprof.Do (unlike the cancel/obs lookups) requires a real one.
		ctx = context.Background()
	}
	m := obs.ExecFrom(ctx)
	workers = Resolve(workers, n)
	if workers == 1 {
		if chk == nil {
			chk = cancel.FromContext(ctx)
		}
		if m != nil {
			m.InlineRuns.Inc()
			m.Jobs.Add(uint64(n))
			// Checkpoint counting must survive early error returns.
			before := chk.Visits()
			defer func() { m.Checkpoints.Add(chk.Visits() - before) }()
		}
		for i := 0; i < n; i++ {
			if err := chk.Point(site); err != nil {
				return err
			}
			if err := fn(chk, i); err != nil {
				return err
			}
		}
		return nil
	}

	// enq holds per-job enqueue timestamps when metrics are on. The sender
	// writes enq[i] before jobs <- i and the worker reads it after receiving
	// i, so the channel gives the happens-before edge.
	var enq []int64
	if m != nil {
		m.Fanouts.Inc()
		m.Jobs.Add(uint64(n))
		m.WorkersSpawned.Add(uint64(workers))
		enq = make([]int64, n)
	}
	var pool pool
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			// pprof goroutine labels do not cross `go`: re-apply the parent's
			// label set (op/rung from the engine ladder) plus this fan-out's
			// site as the phase, so worker CPU shows up attributed in profiles
			// rather than as anonymous pool goroutines.
			pprof.Do(ctx, pprof.Labels("phase", site), func(ctx context.Context) {
				// One checker per goroutine: Checker has no atomics on its hot
				// path and must not be shared.
				chk := cancel.FromContext(ctx)
				if m != nil {
					before := chk.Visits()
					defer func() { m.Checkpoints.Add(chk.Visits() - before) }()
				}
				for i := range jobs {
					if pool.stopped() {
						continue // drain remaining jobs without working
					}
					if m == nil {
						pool.run(chk, i, site, fn)
						continue
					}
					start := obs.Now()
					m.QueueWait.Observe(obs.SecondsSince(enq[i]))
					pool.run(chk, i, site, fn)
					m.JobDuration.ObserveSince(start)
				}
			})
		}()
	}
	for i := 0; i < n; i++ {
		if m != nil {
			enq[i] = obs.Now()
		}
		jobs <- i
	}
	close(jobs)
	pool.wg.Wait()
	return pool.finish()
}

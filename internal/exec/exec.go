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
//   - each job gets a context, and each worker goroutine binds its own
//     cancel.Checker into it (cancel.Fork: Checkers are deliberately
//     single-goroutine), so deadlines and fault-injection hooks keep working
//     inside parallel sections;
//   - the first error wins and stops further work; remaining jobs drain
//     without running;
//   - a panic in any worker is re-raised, with its original value, on the
//     calling goroutine after all workers have exited, so recovery
//     middleware above the pool still sees it, reads the same at every
//     worker count, and no goroutine leaks;
//   - one worker runs the jobs inline on the calling goroutine, under the
//     caller's own checker, so a one-worker fan-out is exactly the
//     sequential loop and no operation needs a second body for it.
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

// ForEach runs fn(ctx, i) for every i in [0, n), fanned out over the given
// number of worker goroutines (0 = GOMAXPROCS, capped at n). Each job's ctx
// carries the checker of the goroutine running it, and before each job that
// checker fires a checkpoint at site, so deadlines and fault-injection rules
// behave as in the sequential loops. The first error returned by any fn stops
// the pool and is returned; a panic in any fn is re-raised, unchanged, on the
// calling goroutine once every worker has drained.
//
// fn must be safe to call concurrently for distinct i; writes to shared
// output should go to per-index slots (out[i] = ...), which needs no locking.
func ForEach(ctx context.Context, n, workers int, site string, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	m := obs.ExecFrom(ctx)
	workers = Resolve(workers, n)
	if workers == 1 {
		ctx, chk := cancel.Bind(ctx)
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
			if err := fn(ctx, i); err != nil {
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
			// pprof goroutine labels do not cross `go`: re-apply the caller's
			// label set (the engine's op and rung, the phase) plus this
			// fan-out's checkpoint site under its own key, so worker CPU shows
			// up attributed in profiles — a phase's workers under the caller's
			// phase — rather than as anonymous pool goroutines.
			pprof.Do(ctx, pprof.Labels("site", site), func(ctx context.Context) {
				// One checker per goroutine: Checker has no atomics on its hot
				// path and must not be shared.
				ctx, chk := cancel.Fork(ctx)
				if m != nil {
					before := chk.Visits()
					defer func() { m.Checkpoints.Add(chk.Visits() - before) }()
				}
				job := func(i int) error {
					if err := chk.Point(site); err != nil {
						return err
					}
					return fn(ctx, i)
				}
				for i := range jobs {
					if pool.stopped() {
						continue // drain remaining jobs without working
					}
					if m == nil {
						pool.run(i, job)
						continue
					}
					start := obs.Now()
					m.QueueWait.Observe(obs.SecondsSince(enq[i]))
					pool.run(i, job)
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

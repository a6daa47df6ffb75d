// Package obs is the zero-dependency observability core of the query engine:
// atomics-based counters, gauges and bounded histograms; a Registry rendering
// Prometheus text format and JSON; process-global cost counters mirroring the
// paper's efficiency metrics (R-tree node accesses, dominance tests, DSL
// computations — §VII reports exactly these) with a per-query counter set
// (Tally) that keeps each query's own counts; a lock-free per-query span
// recorder (Trace); and the debug HTTP mux serving /metrics, expvar and pprof.
//
// Design rules:
//
//   - nil receivers are valid everywhere and reduce every operation to a nil
//     check, so the sequential reference path with observability disabled is
//     unperturbed (the overhead guard in the root package enforces this);
//   - hot loops never call time.Now directly — they use Now from this package
//     (a monotonic nanosecond clock, mockable in tests), which `make vet-obs`
//     enforces repository-wide;
//   - counters on algorithm hot paths are batched: loops count into a local
//     Counts and the operation flushes it once (Flush), into the global
//     counters and the tallies its context carries.
package obs

import (
	"sync/atomic"
	"time"
)

// procStart anchors the monotonic clock; all Now values are nanoseconds since
// process start. time.Since reads the monotonic reading of procStart, so the
// clock never jumps with wall-time adjustments.
var procStart = time.Now()

// clockHook, when non-nil, replaces the clock (tests only).
var clockHook atomic.Pointer[func() int64]

// Now returns monotonic nanoseconds since process start. It is the only
// permitted time source inside the hot-path packages (rtree, skyline,
// rskyline, whynot, exec, region, geom, cancel, engine); the vet-obs lint
// forbids direct time.Now there so timing stays centralised and mockable.
func Now() int64 {
	if fn := clockHook.Load(); fn != nil {
		return (*fn)()
	}
	return int64(time.Since(procStart))
}

// Since returns the duration elapsed since a Now timestamp.
func Since(start int64) time.Duration { return time.Duration(Now() - start) }

// SecondsSince returns the elapsed seconds since a Now timestamp (histogram
// observations use seconds, the Prometheus convention).
func SecondsSince(start int64) float64 { return float64(Now()-start) / 1e9 }

// SetClockForTest replaces the clock and returns a restore function. Install
// before any concurrent use; the swap itself is atomic but a mocked clock
// usually wants deterministic single-goroutine reads.
func SetClockForTest(fn func() int64) (restore func()) {
	clockHook.Store(&fn)
	return func() { clockHook.Store(nil) }
}

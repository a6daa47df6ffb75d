package exec

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
)

func TestForEachRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		n := 100
		out := make([]int, n)
		err := ForEach(context.Background(), n, workers, "test.site", func(_ context.Context, i int) error {
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: job %d not run (got %d)", workers, i, v)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	called := false
	if err := ForEach(context.Background(), 0, 4, "s", func(context.Context, int) error {
		called = true
		return nil
	}); err != nil || called {
		t.Fatalf("err=%v called=%v, want nil/false", err, called)
	}
}

func TestForEachFirstErrorWinsAndStops(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(context.Background(), 1000, workers, "s", func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// After the failure, remaining jobs drain without running. With
		// workers in flight some overshoot is expected, but nowhere near all.
		if workers > 1 && ran.Load() == 1000 {
			t.Fatalf("workers=%d: pool did not stop after first error", workers)
		}
	}
}

func TestForEachPanicReRaisedOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				// The caller sees the worker's own value at every worker
				// count: recovery layers above must not depend on it.
				if r := recover(); r != "kaboom" {
					t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
				}
			}()
			_ = ForEach(context.Background(), 50, workers, "s", func(_ context.Context, i int) error {
				if i == 7 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

func TestForEachObservesContextCancellation(t *testing.T) {
	ctx, cancelCtx := context.WithCancel(context.Background())
	ctx = cancel.WithStride(ctx, 1)
	cancelCtx()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(ctx, 100, workers, "s", func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran after cancellation", workers, ran.Load())
		}
	}
}

// countingHook counts checkpoint visits per site; safe for concurrent use as
// the cancel.Hook contract requires.
type countingHook struct{ n atomic.Uint64 }

func (h *countingHook) Visit(string, uint64) { h.n.Add(1) }

func TestForEachFiresCheckpointPerJob(t *testing.T) {
	h := &countingHook{}
	ctx := cancel.WithHook(context.Background(), h)
	if err := ForEach(ctx, 64, 4, "s", func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := h.n.Load(); got < 64 {
		t.Fatalf("hook saw %d visits, want >= 64 (one per job)", got)
	}
}

// TestForEachCheckedForwardsContext: the jobs' checkpoints follow the
// context ForEach is given, through a checker of each running goroutine.
func TestForEachCheckedForwardsContext(t *testing.T) {
	// A cancelled context reaches the workers through their own checkers.
	ctx, cancelCtx := context.WithCancel(cancel.WithStride(context.Background(), 1))
	cancelCtx()
	err := ForEach(ctx, 10, 4, "s", func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled through the forked checkers", err)
	}
	// A context that can never be cancelled runs everything and returns nil.
	var ran atomic.Int64
	err = ForEach(context.Background(), 10, 4, "s", func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 10 {
		t.Fatalf("background context: err=%v ran=%d, want nil and 10", err, ran.Load())
	}
	// One worker is the caller's own loop: every job runs on, and every
	// checkpoint counts against, the checker the caller bound.
	live, chk := cancel.Bind(cancel.WithHook(context.Background(), &countingHook{}))
	err = ForEach(live, 10, 1, "s", func(ctx context.Context, _ int) error {
		if _, got := cancel.Bind(ctx); got != chk {
			t.Error("inline job got a different checker")
		}
		return nil
	})
	if err != nil || chk.Visits() != 10 {
		t.Fatalf("inline run: err=%v visits=%d, want nil and 10", err, chk.Visits())
	}
	// Several workers never run a job on the caller's checker.
	err = ForEach(live, 10, 4, "s", func(ctx context.Context, _ int) error {
		if _, got := cancel.Bind(ctx); got == nil || got == chk {
			t.Error("worker job ran without a checker of its own")
		}
		return nil
	})
	if err != nil || chk.Visits() != 10 {
		t.Fatalf("fan-out: err=%v caller visits=%d, want nil and still 10", err, chk.Visits())
	}
}

// TestForEachWorkersKeepCallerLabels: a job sees the caller's pprof phase
// label at every worker count — pool workers add their checkpoint site
// under its own key instead of overwriting the phase.
func TestForEachWorkersKeepCallerLabels(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pprof.Do(context.Background(), pprof.Labels("phase", "saferegion.exact"), func(ctx context.Context) {
			var mu sync.Mutex
			var phases []string
			err := ForEach(ctx, 8, workers, "saferegion.customer", func(ctx context.Context, _ int) error {
				phase, _ := pprof.Label(ctx, "phase")
				mu.Lock()
				phases = append(phases, phase)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range phases {
				if p != "saferegion.exact" {
					t.Fatalf("workers=%d: a job saw phase %q, want the caller's saferegion.exact", workers, p)
				}
			}
		})
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(4, 100); got != 4 {
		t.Fatalf("Resolve(4,100) = %d", got)
	}
	if got := Resolve(8, 3); got != 3 {
		t.Fatalf("Resolve(8,3) = %d, want capped at n", got)
	}
	if got := Resolve(0, 1000); got < 1 {
		t.Fatalf("Resolve(0,·) = %d, want >= 1", got)
	}
}

func TestCacheBasicsAndLRU(t *testing.T) {
	c := NewCache[int, string](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	c.Put(3, "c") // evicts 2: 1 was touched more recently
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("recently used entry evicted: %q,%v", v, ok)
	}
	c.Put(1, "a2") // update keeps size
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, _ := c.Get(1); v != "a2" {
		t.Fatalf("update lost: %q", v)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want nonzero hits and misses", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (Put(3) evicted 2)", st.Evictions)
	}
	if st.Len != 2 || st.Capacity != 2 {
		t.Fatalf("len/cap = %d/%d, want 2/2", st.Len, st.Capacity)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", hr)
	}
	c.MarkStale()
	if s2 := c.Stats(); s2.Stale != 1 {
		t.Fatalf("stale = %d, want 1", s2.Stale)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if s3 := c.Stats(); s3.Hits != st.Hits || s3.Misses != st.Misses {
		// counters survive Purge
		t.Fatalf("stats after purge: %+v, want hits/misses preserved from %+v", s3, st)
	}
}

func TestCacheStatsZeroLookups(t *testing.T) {
	// The hit rate must be 0, not NaN, before any lookup — on the nil cache
	// and on a fresh one alike.
	var nilCache *Cache[int, int]
	if hr := nilCache.Stats().HitRate(); hr != 0 {
		t.Fatalf("nil cache hit rate = %v, want 0", hr)
	}
	fresh := NewCache[int, int](4)
	if hr := fresh.Stats().HitRate(); hr != 0 {
		t.Fatalf("fresh cache hit rate = %v, want 0", hr)
	}
	nilCache.MarkStale() // must not panic
}

func TestCacheNilIsAlwaysMiss(t *testing.T) {
	var c *Cache[int, int]
	c.Put(1, 1)
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
	if NewCache[int, int](0) != nil {
		t.Fatal("capacity 0 must return the nil always-miss cache")
	}
}

// TestCacheConcurrentReadersAndPurge is the -race witness for the cache: many
// readers, writers and purgers at once must be data-race free.
func TestCacheConcurrentReadersAndPurge(t *testing.T) {
	c := NewCache[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*31 + i) % 97
				switch i % 4 {
				case 0:
					c.Put(k, i)
				case 3:
					if i%256 == 3 {
						c.Purge()
					}
				default:
					if v, ok := c.Get(k); ok && v < 0 {
						t.Error("corrupt value")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

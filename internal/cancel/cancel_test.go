package cancel

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilCheckerIsFree(t *testing.T) {
	var c *Checker
	if err := c.Point(SiteRTreeNode); err != nil {
		t.Fatalf("nil checker Point = %v", err)
	}
	if c.Err() != nil || c.Visits() != 0 {
		t.Fatal("nil checker must report no error and no visits")
	}
}

// A checker taken from a context that can never be cancelled and carries no
// hook is the zero-overhead nil checker, and nothing is bound.
func TestFromContextBackgroundIsNil(t *testing.T) {
	ctx := context.Background()
	if got, chk := Bind(ctx); chk != nil || got != ctx {
		t.Fatal("background context must bind nothing and yield the zero-overhead nil checker")
	}
	if _, chk := Fork(ctx); chk != nil {
		t.Fatal("Fork of a background context must yield the nil checker too")
	}
	got, err := Enter(ctx)
	if err != nil || got != ctx {
		t.Fatalf("Enter(background) = %v, %v; want ctx unchanged and no error", got, err)
	}
}

func TestEnterRejectsDoneContext(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := Enter(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enter(cancelled) = %v, want Canceled", err)
	}
}

// TestBindReusesOnlyUnderSameSource pins the binding rules: nested Binds on
// one goroutine share one checker, a value-only derivation keeps it, and a
// context with its own Done channel, its own hook, or no cancellation at all
// does not reuse it.
func TestBindReusesOnlyUnderSameSource(t *testing.T) {
	parent, cancelParent := context.WithCancel(context.Background())
	defer cancelParent()
	bound, chk := Bind(parent)
	if chk == nil {
		t.Fatal("cancellable context must bind a checker")
	}
	if again, chk2 := Bind(bound); chk2 != chk || again != bound {
		t.Fatal("nested Bind must reuse the bound checker without a new binding")
	}
	type key struct{}
	if _, chk2 := Bind(context.WithValue(bound, key{}, 1)); chk2 != chk {
		t.Fatal("a value-only derivation shares the cancellation source and must reuse the checker")
	}
	if _, chk2 := Fork(bound); chk2 == nil || chk2 == chk {
		t.Fatal("Fork must bind a fresh checker")
	}

	child, cancelChild := context.WithTimeout(bound, time.Hour)
	defer cancelChild()
	if _, chk2 := Bind(child); chk2 == nil || chk2 == chk {
		t.Fatal("a derived deadline must get its own checker")
	}
	h := &recordingHook{}
	_, chk2 := Bind(WithHook(bound, h))
	if chk2 == nil || chk2 == chk {
		t.Fatal("a context with its own hook must get its own checker")
	}
	if err := chk2.Point(SiteRTreeNode); err != nil || len(h.sites) != 1 {
		t.Fatal("the fresh checker must consult the new hook")
	}
	if _, chk2 := Bind(context.WithoutCancel(bound)); chk2 != nil {
		t.Fatal("a context that cannot be cancelled and has no hook must bind nothing")
	}
}

func TestStrideAmortisation(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	ctx = WithStride(ctx, 10)
	_, chk := Bind(ctx)
	if chk == nil {
		t.Fatal("cancellable context must yield a checker")
	}
	cancelFn()
	// The first 9 hits fall between polls and must pass.
	for i := 0; i < 9; i++ {
		if err := chk.Point(SiteRTreeNode); err != nil {
			t.Fatalf("hit %d observed cancellation before the stride boundary", i+1)
		}
	}
	if err := chk.Point(SiteRTreeNode); !errors.Is(err, context.Canceled) {
		t.Fatalf("stride boundary must observe cancellation, got %v", err)
	}
	// Sticky from now on, regardless of stride position.
	if err := chk.Point(SiteRTreeNode); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancellation Point = %v", err)
	}
	if !errors.Is(chk.Err(), context.Canceled) {
		t.Fatalf("Err = %v", chk.Err())
	}
}

type recordingHook struct {
	sites []string
	ns    []uint64
	do    func(site string, n uint64)
}

func (h *recordingHook) Visit(site string, n uint64) {
	h.sites = append(h.sites, site)
	h.ns = append(h.ns, n)
	if h.do != nil {
		h.do(site, n)
	}
}

func TestHookSeesEveryHitAndImmediatePoll(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	h := &recordingHook{}
	h.do = func(site string, n uint64) {
		if n == 3 {
			cancelFn()
		}
	}
	_, chk := Bind(WithStride(WithHook(ctx, h), 1000))
	var err error
	hits := 0
	for err == nil && hits < 100 {
		hits++
		err = chk.Point(SiteSafeRegion)
	}
	// Despite the huge stride, the injected cancellation at hit 3 must be
	// observed at hit 3 because a hook forces an immediate poll.
	if hits != 3 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled after %d hits, err=%v; want 3 hits", hits, err)
	}
	if len(h.sites) != 3 || h.sites[0] != SiteSafeRegion || h.ns[2] != 3 {
		t.Fatalf("hook saw %v %v", h.sites, h.ns)
	}
}

func TestHookOnUncancellableContext(t *testing.T) {
	h := &recordingHook{}
	_, chk := Bind(WithHook(context.Background(), h))
	if chk == nil {
		t.Fatal("hook-carrying context must yield a checker even without Done")
	}
	for i := 0; i < 5; i++ {
		if err := chk.Point(SiteMWQCorner); err != nil {
			t.Fatalf("uncancellable context returned %v", err)
		}
	}
	if len(h.sites) != 5 {
		t.Fatalf("hook saw %d hits, want 5", len(h.sites))
	}
}

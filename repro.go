// Package repro is a Go implementation of "On Answering Why-not Questions in
// Reverse Skyline Queries" (Islam, Zhou, Liu — ICDE 2013).
//
// Given a product catalogue P, a query product q, and customer preferences C,
// the reverse skyline RSL(q) is the set of customers whose dynamic skyline
// contains q — the customers for whom q is interesting. A why-not question
// asks why a particular customer c_t is missing from RSL(q), and what minimal
// change would fix that. This package answers it four ways:
//
//   - Explain: the culprit products that keep c_t away (deleting them admits
//     c_t — Lemma 1 of the paper);
//   - MWP (Algorithm 1): minimally move the customer preference c_t;
//   - MQP (Algorithm 2): minimally move the product q, possibly losing other
//     customers;
//   - MWQ (Algorithm 4): move q only within its safe region — the area where
//     no existing customer is lost (Algorithm 3) — and move c_t only if the
//     safe region cannot reach it; an approximate precomputed variant trades
//     answer quality for orders-of-magnitude faster safe regions (§VI.B.1).
//
// # Quickstart
//
//	products := []repro.Item{
//		{ID: 1, Point: repro.NewPoint(5, 30)},   // price K$, mileage Kmi
//		{ID: 2, Point: repro.NewPoint(7.5, 42)},
//		// ...
//	}
//	db := repro.NewDB(2, products)               // R*-tree indexed
//	q := repro.NewPoint(8.5, 55)                 // the car we want to sell
//	rsl := db.ReverseSkyline(products, q)        // who is interested now
//	res := db.MWP(products[0], q, repro.Options{})
//	fmt.Println(res.Best().Point)                // minimal customer move
//
// All heavy lifting lives in internal packages (R*-tree, skyline algorithms,
// rectangle-region algebra); this package is the stable surface examples and
// downstream users build on.
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/cancel"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/obs/flight"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/wal"
	"repro/internal/whynot"
)

// Point is a d-dimensional point.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle.
type Rect = geom.Rect

// Item is an identified point stored in the database.
type Item = rtree.Item

// Options tunes the why-not algorithms (sort dimension, per-dimension cost
// weights). The zero value reproduces the paper's setup.
type Options = whynot.Options

// Candidate is a proposed location with its normalised movement cost.
type Candidate = whynot.Candidate

// MWPResult is the outcome of modifying the why-not point (Algorithm 1).
type MWPResult = whynot.MWPResult

// MQPResult is the outcome of modifying the query point (Algorithm 2).
type MQPResult = whynot.MQPResult

// MWQResult is the outcome of modifying both points under the safe region
// (Algorithm 4).
type MWQResult = whynot.MWQResult

// Region is a union of rectangles (safe regions, anti-dominance regions).
type Region = region.Set

// ApproxStore holds precomputed approximate dynamic skylines (§VI.B.1).
type ApproxStore = whynot.ApproxStore

// Dataset is a named point collection with CSV round-tripping.
type Dataset = dataset.Dataset

// NewPoint builds a Point from coordinates.
func NewPoint(coords ...float64) Point { return geom.NewPoint(coords...) }

// QueryTrace records the timed phases (spans) and annotated instants
// (events) of one query: which ladder rungs ran, how long the safe-region
// construction took, why a degradation happened. Obtain one with StartTrace,
// run the query with the returned context, then read Spans/Events/Format.
type QueryTrace = obs.Trace

// CacheStatsDetail is the accounting snapshot of one memoisation cache.
type CacheStatsDetail = exec.CacheStats

// ExecMetrics is the worker-pool instrumentation handle carried by contexts.
type ExecMetrics = obs.ExecMetrics

// ExplainPlan is the structured plan-tree profile of one query: which phases
// ran, how many candidates entered and survived each one, which pruning rule
// did the work, and the work each phase counted (per-level R-tree page
// accesses, dominance tests, window queries) beside its wall time. Obtain
// one with StartExplain; render it with its String (timed) or StableString
// (deterministic) methods.
type ExplainPlan = explain.Plan

// ExplainNode is one profiled phase of an ExplainPlan.
type ExplainNode = explain.Node

// FingerprintClass is the aggregated latency and counted-work profile of one
// workload class in the query-fingerprint regression store.
type FingerprintClass = explain.ClassSnapshot

// DB is a product database indexed by an R*-tree, answering reverse-skyline
// queries and why-not questions over it.
type DB struct {
	engine *whynot.Engine
	// reg and pool are non-nil only when DBOptions.Observability is set; every
	// obs type is nil-safe, so the disabled state needs no branches below.
	reg      *obs.Registry
	pool     *obs.ExecMetrics
	queries  *obs.LabeledCounter
	queryDur *obs.Histogram
	// flight is non-nil only with DBOptions.FlightSize > 0: the per-query
	// ledger recording one flight.QueryRecord per DB entry point.
	flight *flight.Ledger
	// fingerprints backs the EXPLAIN surface. It is always on — a query that
	// never calls StartExplain pays only the nil context checks in the
	// instrumented layers.
	fingerprints *explain.Store
	// Durable-mode state (OpenDurable): the write-ahead log, the live item
	// set it checkpoints from, and the mutation lock that keeps WAL order
	// identical to index-apply order. All nil/zero on an in-memory DB.
	wal      *wal.Log
	mutMu    sync.Mutex
	items    map[int]Item
	recovery wal.Recovery
}

// DBOptions tunes execution of a DB beyond the paper's single-threaded
// reference configuration. The zero value preserves that reference behaviour
// exactly: sequential execution, no caching.
type DBOptions struct {
	// Parallelism is the worker count for the per-customer loops (reverse
	// skylines, safe-region construction, batch why-not answering,
	// approximate-store builds). 0 or 1 runs sequentially — the paper's
	// reference behaviour; n > 1 uses n workers; negative means GOMAXPROCS.
	// It is the only worker setting: NewDBWithOptions resolves it once and
	// every operation on the DB, including the degradation ladder of
	// internal/engine, fans out over that many workers.
	Parallelism int
	// CacheSize bounds the memoisation caches for per-customer dynamic
	// skylines and anti-dominance regions (entries each). 0 disables
	// caching. Cached entries are invalidated by Insert and Delete.
	CacheSize int
	// Observability turns on the metrics registry and per-query tracing for
	// this DB: Metrics() serves Prometheus/JSON renderings of the paper's
	// cost counters (node accesses, dominance tests, ...), worker-pool
	// utilisation flows into every fan-out of every query method, and
	// StartTrace records per-query phase spans. Disabled (the default),
	// every instrumentation hook is a nil no-op on the query path.
	Observability bool
	// Durability, when non-nil, configures write-ahead logging for this DB.
	// Only OpenDurable reads it; NewDBWithOptions ignores it (an in-memory DB
	// has no log).
	Durability *DurabilityOptions
	// FlightSize, when positive, turns on the per-query flight recorder: a
	// bounded ring of flight.QueryRecords (one per query entering this DB)
	// readable via FlightRecorder(). Records carry the same schema the
	// serving layer's ledger and `cmd/whynot -stats` use. With Observability
	// also on, the ledger's meta-metrics join the registry.
	FlightSize int
}

// NewDB bulk-loads products into an R*-tree (the paper's 1536-byte page
// configuration) and prepares the why-not engine. Products and customers are
// treated monochromatically: a customer whose ID matches a product record is
// not blocked by its own record.
func NewDB(dims int, products []Item) *DB {
	return NewDBWithOptions(dims, products, DBOptions{})
}

// NewDBWithOptions is NewDB with explicit parallelism and caching knobs.
func NewDBWithOptions(dims int, products []Item, opts DBOptions) *DB {
	rdb := rskyline.NewDB(dims, products, rtree.Config{})
	engine := whynot.NewEngine(rdb, true)
	if opts.CacheSize > 0 {
		rdb.EnableDSLCache(opts.CacheSize)
		engine.EnableAntiDDRCache(opts.CacheSize)
	}
	workers := opts.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rdb.SetWorkers(workers) // 0, the zero value, runs sequentially
	db := &DB{
		engine:       engine,
		fingerprints: explain.NewStore(),
	}
	if opts.Observability {
		db.initObservability(rdb)
	}
	if opts.FlightSize > 0 {
		db.flight = flight.New(flight.Config{
			Size:     opts.FlightSize,
			Latency:  db.queryDur,
			Epoch:    time.Now().Add(-time.Duration(obs.Now())),
			Registry: db.reg,
		})
	}
	return db
}

// initObservability builds the registry and registers every read-through
// counter: the process-global cost counters, this DB's R-tree I/O counters,
// the cache accounting, the worker-pool metrics and the per-query ladder.
func (db *DB) initObservability(rdb *rskyline.DB) {
	r := obs.NewRegistry()
	obs.RegisterCost(r)
	obs.RegisterTraceHealth(r)
	obs.RegisterRuntime(r)
	r.GaugeFunc("fingerprint_drift",
		"Workload classes whose recent counted-work p95 drifted past their frozen baseline",
		func() float64 { return float64(db.fingerprints.Drifting()) })
	tree := rdb.Tree() // the tree pointer is stable across Insert/Delete
	r.CounterFunc("rtree_node_accesses_total",
		"R-tree nodes visited (the paper's I/O cost metric)",
		func() uint64 { return uint64(tree.Accesses()) })
	r.CounterFunc("rtree_leaf_scans_total",
		"R-tree leaf nodes among the visited (data-page reads)",
		func() uint64 { return uint64(tree.LeafScans()) })
	for _, c := range []struct {
		prefix string
		stats  func() exec.CacheStats
	}{
		{"dsl_cache", rdb.DSLCacheStats},
		{"antiddr_cache", db.engine.AntiDDRCacheStats},
	} {
		stats := c.stats
		r.CounterFunc(c.prefix+"_hits_total", "cache hits (including stale-on-arrival)",
			func() uint64 { return stats().Hits })
		r.CounterFunc(c.prefix+"_misses_total", "cache misses",
			func() uint64 { return stats().Misses })
		r.CounterFunc(c.prefix+"_stale_total", "stale-on-arrival hits (generation-invalidated)",
			func() uint64 { return stats().Stale })
		r.CounterFunc(c.prefix+"_evictions_total", "LRU evictions",
			func() uint64 { return stats().Evictions })
		r.GaugeFunc(c.prefix+"_entries", "current cache occupancy",
			func() float64 { return float64(stats().Len) })
	}
	db.reg = r
	db.pool = obs.NewExecMetrics(r)
	db.queries = r.LabeledCounter("queries_total", "queries served, by operation", "op")
	db.queryDur = r.Histogram("query_duration_seconds", "end-to-end query latency", nil)
}

// Metrics returns this DB's metrics registry (nil unless the DB was built
// with DBOptions.Observability). Serve it with obs endpoints via its Handler,
// or render it directly with WritePrometheus / WriteJSON.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// PoolMetrics returns the worker-pool instrumentation handle (nil when
// observability is off). Attach it to foreign contexts with
// WithExecMetrics when driving the engine directly.
func (db *DB) PoolMetrics() *ExecMetrics { return db.pool }

// WithExecMetrics attaches worker-pool instrumentation to a context.
func WithExecMetrics(ctx context.Context, m *ExecMetrics) context.Context {
	return obs.WithExecMetrics(ctx, m)
}

// StartTrace begins a per-query trace named op and returns a derived context
// carrying it: pass that context to any XxxContext method and the engine
// layers record their phase spans and events into the trace. When
// observability is disabled both returns are pass-throughs (nil trace: every
// trace method is a no-op), so call sites need no branches.
func (db *DB) StartTrace(ctx context.Context, op string) (context.Context, *QueryTrace) {
	if db.reg == nil {
		return ctx, nil
	}
	t := obs.NewTrace(op)
	return obs.WithTrace(ctx, t), t
}

// StartExplain opens a plan-tree profile for one query: run any XxxContext
// method with the returned context and every phase the query runs (window
// queries, MWP candidate generation, safe-region folds, MWQ corner
// enumeration, ladder rungs) becomes a plan node with candidate counts,
// pruning rules, R-tree accesses, dominance tests and wall time. Each node
// counts its own query's work only, through the context. The finish func
// closes the plan — pass the degradation rung that answered ("exact",
// "approx", ...; "" when no ladder is involved) — feeds the
// query-fingerprint regression store, and returns the plan for rendering or
// inspection.
//
// Available regardless of DBOptions.Observability: the fingerprint store is
// always on, and a query that never calls StartExplain pays only a nil
// context check per phase.
func (db *DB) StartExplain(ctx context.Context, op string) (context.Context, func(rung string) *ExplainPlan) {
	b := explain.NewBuilder(op, db.Dims())
	ctx = explain.With(ctx, b)
	fctx := ctx
	return ctx, func(rung string) *ExplainPlan {
		plan := b.Finish(rung)
		if db.fingerprints.Observe(plan) {
			// Drift rides the query trace (and with it any flight record):
			// the workload class this query belongs to has regressed.
			obs.TraceFrom(fctx).Eventf("fingerprint_drift", "%s", plan.Fingerprint)
		}
		return plan
	}
}

// Fingerprints returns the per-workload-class aggregates of the
// query-fingerprint regression store, busiest class first. Classes form from
// queries profiled via StartExplain (including the serving layer's
// explain=1 requests when this DB backs a server snapshot).
func (db *DB) Fingerprints() []FingerprintClass { return db.fingerprints.Snapshot() }

// FingerprintDrift reports how many workload classes currently trip the
// counted-work drift detector — the value behind the fingerprint_drift
// gauge.
func (db *DB) FingerprintDrift() int { return db.fingerprints.Drifting() }

// MWQExactExplain is MWQExactContext with a plan profile: it computes the
// safe region, answers the why-not question, and returns the structured
// EXPLAIN plan alongside the result.
func (db *DB) MWQExactExplain(ctx context.Context, ct Item, q Point, rsl []Item, opt Options) (MWQResult, *ExplainPlan, error) {
	ctx, finish := db.StartExplain(ctx, "mwq")
	res, err := db.MWQExactContext(ctx, ct, q, rsl, opt)
	return res, finish("exact"), err
}

// obsCtx instruments a context entering this DB; every XxxContext method
// opens it exactly once, and every context-free method is one call of its
// XxxContext twin, so both forms report alike. Worker-pool metrics ride the
// context into every exec.ForEach fan-out below. The per-op counter and
// latency histogram are recorded by the returned finish func (nil-safe when
// off), and with the flight recorder on each entry gets its own QueryRecord,
// whose tally and trace ride the context (the record adopts a trace the
// caller already supplied). A nil context is treated as
// context.Background().
func (db *DB) obsCtx(ctx context.Context, op string) (context.Context, func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.reg == nil && db.flight == nil {
		return ctx, func() {}
	}
	db.queries.With(op).Inc()
	start := obs.Now()
	if db.pool != nil {
		ctx = obs.WithExecMetrics(ctx, db.pool)
	}
	act := db.flight.Begin(op, "db", "", db.Workers())
	ctx = act.Context(ctx)
	fctx := ctx
	return ctx, func() {
		db.queryDur.ObserveSince(start)
		// The context's terminal state classifies the outcome: a dead
		// context at completion means the query returned its ctx error.
		act.Finish(flight.ClassifyErr(fctx.Err()), "")
	}
}

// FlightRecorder returns the per-DB query ledger, nil unless
// DBOptions.FlightSize > 0.
func (db *DB) FlightRecorder() *flight.Ledger { return db.flight }

// Cost is a point-in-time snapshot of the paper's cost metrics: the
// process-global algorithm counters plus this DB's R-tree I/O counters.
// Subtract two snapshots to measure a workload run alone; a query's own
// counts, exact while others run, are in its flight record and plan.
type Cost struct {
	obs.CostSnapshot
	NodeAccesses uint64 `json:"node_accesses"`
	LeafScans    uint64 `json:"leaf_scans"`
}

// Cost reads the current cost counters. Available regardless of the
// Observability option — the counters are always on (their overhead is a few
// batched atomic adds per query).
func (db *DB) Cost() Cost {
	tree := db.engine.DB.Tree()
	return Cost{
		CostSnapshot: obs.Cost(),
		NodeAccesses: uint64(tree.Accesses()),
		LeafScans:    uint64(tree.LeafScans()),
	}
}

// Sub returns the per-field difference c − o.
func (c Cost) Sub(o Cost) Cost {
	return Cost{
		CostSnapshot: c.CostSnapshot.Sub(o.CostSnapshot),
		NodeAccesses: c.NodeAccesses - o.NodeAccesses,
		LeafScans:    c.LeafScans - o.LeafScans,
	}
}

// Workers returns the worker count DBOptions.Parallelism resolved to at
// construction: 1 runs sequentially, n > 1 fans every per-customer loop out
// over n goroutines.
func (db *DB) Workers() int { return db.engine.DB.Workers() }

// Insert adds a product to the index and invalidates every derived cache
// (cached dynamic skylines and anti-dominance regions are stamped with a
// mutation generation and can never be served after this call). On a durable
// DB (OpenDurable) it panics: bypassing the WAL would silently fork the
// on-disk and in-memory states — use InsertDurable.
func (db *DB) Insert(it Item) {
	if db.wal != nil {
		panic("repro: Insert on a durable DB bypasses the WAL; use InsertDurable")
	}
	db.engine.DB.Insert(it)
	db.engine.InvalidateCaches()
}

// Delete removes the product equal to it (ID and position), reporting whether
// it was present. A successful delete invalidates every derived cache. On a
// durable DB it panics — use DeleteDurable.
func (db *DB) Delete(it Item) bool {
	if db.wal != nil {
		panic("repro: Delete on a durable DB bypasses the WAL; use DeleteDurable")
	}
	ok := db.engine.DB.Delete(it)
	if ok {
		db.engine.InvalidateCaches()
	}
	return ok
}

// InvalidateCaches retires every memoised structure of this DB without
// touching the index: the mutation generation is bumped (so generation-stamped
// cache entries held anywhere — including by in-flight queries that grabbed
// this DB before the call — are rejected as stale-on-arrival from now on) and
// the per-customer caches are purged to release their memory. Hot-swap
// serving layers call it on the outgoing snapshot after an atomic dataset
// swap; queries already running against the old snapshot stay correct, they
// just stop reusing its caches.
func (db *DB) InvalidateCaches() {
	db.engine.DB.Invalidate()
	db.engine.InvalidateCaches()
}

// Len returns the number of products.
func (db *DB) Len() int { return db.engine.DB.Len() }

// Dims returns the dimensionality.
func (db *DB) Dims() int { return db.engine.DB.Dims() }

// DynamicSkyline returns DSL(c): the products not dynamically dominated with
// respect to the preference point c (Definition 2).
func (db *DB) DynamicSkyline(c Point) []Item {
	out, _ := db.DynamicSkylineContext(context.Background(), c)
	return out
}

// ReverseSkyline returns RSL(q) over the given customers: those whose dynamic
// skyline contains q (Definition 3). With Parallelism configured the
// candidates that survive the global-dominance filter are verified on the
// worker pool; results are identical.
func (db *DB) ReverseSkyline(customers []Item, q Point) []Item {
	out, _ := db.ReverseSkylineContext(context.Background(), customers, q)
	return out
}

// IsReverseSkyline reports whether customer c belongs to RSL(q).
func (db *DB) IsReverseSkyline(c Item, q Point) bool {
	member, _ := db.IsReverseSkylineContext(context.Background(), c, q)
	return member
}

// Explain returns the culprit products whose presence keeps c_t out of
// RSL(q); empty means c_t is already a reverse-skyline point.
func (db *DB) Explain(ct Item, q Point) []Item {
	out, _ := db.ExplainContext(context.Background(), ct, q)
	return out
}

// MWP modifies the why-not point: candidate minimal moves of c_t that put q
// into its dynamic skyline (Algorithm 1).
func (db *DB) MWP(ct Item, q Point, opt Options) MWPResult {
	res, _ := db.MWPContext(context.Background(), ct, q, opt)
	return res
}

// MQP modifies the query point: candidate minimal moves of q that put c_t
// into RSL(q*) (Algorithm 2). Existing customers may be lost; use
// MQPTotalCost to charge their restoration.
func (db *DB) MQP(ct Item, q Point, opt Options) MQPResult {
	res, _ := db.MQPContext(context.Background(), ct, q, opt)
	return res
}

// MQPTotalCost is the §VI.A experimental cost of a refined query point:
// distance from the safe region plus the MWP cost of winning back every lost
// customer.
func (db *DB) MQPTotalCost(q, qStar Point, rsl []Item, sr Region, opt Options) float64 {
	cost, _ := db.MQPTotalCostContext(context.Background(), q, qStar, rsl, sr, opt)
	return cost
}

// SafeRegion computes the exact safe region of q (Algorithm 3): the locus of
// query positions that keep every customer of rsl in the reverse skyline.
// With Parallelism configured the per-customer anti-dominance regions are
// built on the worker pool; results are identical.
func (db *DB) SafeRegion(q Point, rsl []Item) Region {
	sr, _ := db.SafeRegionContext(context.Background(), q, rsl)
	return sr
}

// AntiDominanceRegion returns the anti-DDR of a customer as rectangles
// (Fig. 10): q lies inside it iff the customer is in RSL(q).
func (db *DB) AntiDominanceRegion(c Item) Region {
	set, _ := db.AntiDominanceRegionContext(context.Background(), c)
	return set
}

// MWQ answers the why-not question with both-point modification under a
// precomputed safe region (Algorithm 4).
func (db *DB) MWQ(ct Item, q Point, sr Region, opt Options) MWQResult {
	res, _ := db.MWQContext(context.Background(), ct, q, sr, opt)
	return res
}

// MWQExact computes the safe region and answers the why-not question. With
// Parallelism configured the safe-region construction runs on the worker
// pool; results are identical.
func (db *DB) MWQExact(ct Item, q Point, rsl []Item, opt Options) MWQResult {
	res, _ := db.MWQExactContext(context.Background(), ct, q, rsl, opt)
	return res
}

// MWQBatch answers one why-not question per customer against the same query
// point, computing the safe region once (§VI.B's reuse property). Results
// align positionally with cts. With Parallelism configured both the
// safe-region construction and the per-question loop run on the worker pool.
func (db *DB) MWQBatch(cts []Item, q Point, rsl []Item, opt Options) []MWQResult {
	out, _ := db.MWQBatchContext(context.Background(), cts, q, rsl, opt)
	return out
}

// TruncateSafeRegion clips a safe region to a feature-limit box (§V.B):
// still loses no customer, but respects business constraints on how far the
// product may move.
func TruncateSafeRegion(sr Region, limits Rect) Region {
	return whynot.TruncateSafeRegion(sr, limits)
}

// ExpandSafeRegion relaxes movement to a whole feature box (§V.B), accepting
// possible customer loss; quantify it per position with LostCustomers.
func ExpandSafeRegion(limits Rect) Region {
	return whynot.ExpandSafeRegion(limits)
}

// LostCustomers returns the members of rsl that would leave the reverse
// skyline if q moved to qStar.
func (db *DB) LostCustomers(qStar Point, rsl []Item) []Item {
	lost, _ := db.LostCustomersContext(context.Background(), qStar, rsl)
	return lost
}

// BuildApproxStore precomputes k-sampled dynamic skylines for the given
// customers (the offline step of §VI.B.1). With Parallelism configured the
// per-customer precomputation runs on the worker pool.
func (db *DB) BuildApproxStore(customers []Item, k int) *ApproxStore {
	store, _ := db.BuildApproxStoreContext(context.Background(), customers, k)
	return store
}

// LoadApproxStore reads a store previously written with ApproxStore.Save.
func LoadApproxStore(r io.Reader) (*ApproxStore, error) {
	return whynot.LoadApproxStore(r)
}

// ReverseSkylineBBRS computes RSL(q) in the monochromatic setting (customer
// preferences are the product records themselves) with the index-based BBRS
// pipeline of Dellis & Seeger. With Parallelism configured the per-candidate
// verification runs on the worker pool; results are identical.
func (db *DB) ReverseSkylineBBRS(q Point) []Item {
	out, _ := db.ReverseSkylineBBRSContext(context.Background(), q)
	return out
}

// MWQApprox answers the why-not question using the approximate safe region
// assembled from the store: much faster, never worse than MWP.
func (db *DB) MWQApprox(ct Item, q Point, rsl []Item, store *ApproxStore, opt Options) MWQResult {
	res, _ := db.MWQApproxContext(context.Background(), ct, q, rsl, store, opt)
	return res
}

// ValidateWhyNotMove verifies an MWP candidate with a real window query
// after an ε-nudge toward q (candidates are infima on the valid region's
// boundary).
func (db *DB) ValidateWhyNotMove(ct Item, q Point, cand Point, eps float64) bool {
	ok, _ := db.ValidateWhyNotMoveContext(context.Background(), ct, q, cand, eps)
	return ok
}

// ValidateQueryMove verifies an MQP candidate likewise.
func (db *DB) ValidateQueryMove(ct Item, cand Point, eps float64) bool {
	ok, _ := db.ValidateQueryMoveContext(context.Background(), ct, cand, eps)
	return ok
}

// Engine exposes the underlying why-not engine for advanced use (custom
// normalisers, direct window queries).
func (db *DB) Engine() *whynot.Engine { return db.engine }

// CacheStats is the accounting of both memoisation caches.
type CacheStats struct {
	DSL     CacheStatsDetail `json:"dsl"`
	AntiDDR CacheStatsDetail `json:"anti_ddr"`
}

// CacheStats reports hits, misses, stale-on-arrival hits, evictions and
// occupancy of the dynamic-skyline and anti-dominance-region caches (all
// zeros when CacheSize is 0).
func (db *DB) CacheStats() CacheStats {
	return CacheStats{
		DSL:     db.engine.DB.DSLCacheStats(),
		AntiDDR: db.engine.AntiDDRCacheStats(),
	}
}

// --- Context-aware API -----------------------------------------------------
//
// Every XxxContext method is the corresponding method with cooperative
// deadline/cancellation support: pass a context carrying a deadline (or one
// that may be cancelled) and the query returns early with a wrapped ctx.Err()
// instead of running to completion. A context that is already cancelled at the
// call boundary returns immediately with zero algorithmic work — no index
// node is touched. Errors unwrap to context.Canceled or
// context.DeadlineExceeded via errors.Is. The XxxContext method is the one
// body of each operation: the context-free method runs it under
// context.Background(), with the same metrics, flight record and trace.

// wrapCtxErr stamps query-stack errors with the public package and operation
// name so a caller several layers up can tell which query timed out.
func wrapCtxErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("repro: %s: %w", op, err)
}

// DynamicSkylineContext is DynamicSkyline with deadline/cancellation support.
func (db *DB) DynamicSkylineContext(ctx context.Context, c Point) ([]Item, error) {
	const op = "dynamic skyline"
	ctx, done := db.obsCtx(ctx, "dsl")
	defer done()
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, wrapCtxErr(op, err)
	}
	out, err := db.engine.DB.DynamicSkylineCtx(ctx, c)
	return out, wrapCtxErr(op, err)
}

// ReverseSkylineContext is ReverseSkyline with deadline/cancellation support.
func (db *DB) ReverseSkylineContext(ctx context.Context, customers []Item, q Point) ([]Item, error) {
	const op = "reverse skyline"
	ctx, done := db.obsCtx(ctx, "rsl")
	defer done()
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, wrapCtxErr(op, err)
	}
	out, err := db.engine.DB.ReverseSkylineFilteredCtx(ctx, customers, q)
	return out, wrapCtxErr(op, err)
}

// IsReverseSkylineContext is IsReverseSkyline with deadline/cancellation
// support.
func (db *DB) IsReverseSkylineContext(ctx context.Context, c Item, q Point) (bool, error) {
	const op = "reverse skyline membership"
	ctx, done := db.obsCtx(ctx, "rsl-member")
	defer done()
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return false, wrapCtxErr(op, err)
	}
	ok, err := db.engine.DB.IsReverseSkylineCtx(ctx, c, q)
	return ok, wrapCtxErr(op, err)
}

// ReverseSkylineBBRSContext is ReverseSkylineBBRS with deadline/cancellation
// support.
func (db *DB) ReverseSkylineBBRSContext(ctx context.Context, q Point) ([]Item, error) {
	const op = "reverse skyline (BBRS)"
	ctx, done := db.obsCtx(ctx, "rsl-bbrs")
	defer done()
	ctx, err := cancel.Enter(ctx)
	if err != nil {
		return nil, wrapCtxErr(op, err)
	}
	out, err := db.engine.DB.ReverseSkylineBBRSCtx(ctx, q)
	return out, wrapCtxErr(op, err)
}

// ExplainContext is Explain with deadline/cancellation support.
func (db *DB) ExplainContext(ctx context.Context, ct Item, q Point) ([]Item, error) {
	ctx, done := db.obsCtx(ctx, "explain")
	defer done()
	out, err := db.engine.ExplainCtx(ctx, ct, q)
	return out, wrapCtxErr("explain", err)
}

// MWPContext is MWP with deadline/cancellation support.
func (db *DB) MWPContext(ctx context.Context, ct Item, q Point, opt Options) (MWPResult, error) {
	ctx, done := db.obsCtx(ctx, "mwp")
	defer done()
	res, err := db.engine.MWPCtx(ctx, ct, q, opt)
	return res, wrapCtxErr("MWP", err)
}

// MQPContext is MQP with deadline/cancellation support.
func (db *DB) MQPContext(ctx context.Context, ct Item, q Point, opt Options) (MQPResult, error) {
	ctx, done := db.obsCtx(ctx, "mqp")
	defer done()
	res, err := db.engine.MQPCtx(ctx, ct, q, opt)
	return res, wrapCtxErr("MQP", err)
}

// MQPTotalCostContext is MQPTotalCost with deadline/cancellation support.
func (db *DB) MQPTotalCostContext(ctx context.Context, q, qStar Point, rsl []Item, sr Region, opt Options) (float64, error) {
	ctx, done := db.obsCtx(ctx, "mqp-cost")
	defer done()
	cost, err := db.engine.MQPTotalCostCtx(ctx, q, qStar, rsl, sr, opt)
	return cost, wrapCtxErr("MQP total cost", err)
}

// SafeRegionContext is SafeRegion with deadline/cancellation support. The
// exact construction is the step that grows exponentially with |RSL(q)| in
// the worst case, so this is the method that most needs a deadline.
func (db *DB) SafeRegionContext(ctx context.Context, q Point, rsl []Item) (Region, error) {
	ctx, done := db.obsCtx(ctx, "saferegion")
	defer done()
	sr, err := db.engine.SafeRegionCtx(ctx, q, rsl)
	return sr, wrapCtxErr("safe region", err)
}

// ApproxSafeRegionContext assembles the approximate safe region from a
// precomputed store with deadline/cancellation support.
func (db *DB) ApproxSafeRegionContext(ctx context.Context, q Point, rsl []Item, store *ApproxStore) (Region, error) {
	ctx, done := db.obsCtx(ctx, "approx-saferegion")
	defer done()
	sr, err := db.engine.ApproxSafeRegionCtx(ctx, q, rsl, store)
	return sr, wrapCtxErr("approximate safe region", err)
}

// AntiDominanceRegionContext is AntiDominanceRegion with
// deadline/cancellation support.
func (db *DB) AntiDominanceRegionContext(ctx context.Context, c Item) (Region, error) {
	ctx, done := db.obsCtx(ctx, "antiddr")
	defer done()
	set, err := db.engine.AntiDDROfCtx(ctx, c)
	return set, wrapCtxErr("anti-dominance region", err)
}

// MWQContext is MWQ with deadline/cancellation support.
func (db *DB) MWQContext(ctx context.Context, ct Item, q Point, sr Region, opt Options) (MWQResult, error) {
	ctx, done := db.obsCtx(ctx, "mwq")
	defer done()
	res, err := db.engine.MWQCtx(ctx, ct, q, sr, opt)
	return res, wrapCtxErr("MWQ", err)
}

// MWQExactContext is MWQExact with deadline/cancellation support.
func (db *DB) MWQExactContext(ctx context.Context, ct Item, q Point, rsl []Item, opt Options) (MWQResult, error) {
	ctx, done := db.obsCtx(ctx, "mwq")
	defer done()
	res, err := db.engine.MWQExactCtx(ctx, ct, q, rsl, opt)
	return res, wrapCtxErr("exact MWQ", err)
}

// MWQApproxContext is MWQApprox with deadline/cancellation support.
func (db *DB) MWQApproxContext(ctx context.Context, ct Item, q Point, rsl []Item, store *ApproxStore, opt Options) (MWQResult, error) {
	ctx, done := db.obsCtx(ctx, "approx-mwq")
	defer done()
	res, err := db.engine.MWQApproxCtx(ctx, ct, q, rsl, store, opt)
	return res, wrapCtxErr("approximate MWQ", err)
}

// MWQBatchContext is MWQBatch with deadline/cancellation support.
func (db *DB) MWQBatchContext(ctx context.Context, cts []Item, q Point, rsl []Item, opt Options) ([]MWQResult, error) {
	ctx, done := db.obsCtx(ctx, "mwq-batch")
	defer done()
	out, err := db.engine.MWQBatchCtx(ctx, cts, q, rsl, opt)
	return out, wrapCtxErr("MWQ batch", err)
}

// LostCustomersContext is LostCustomers with deadline/cancellation support.
func (db *DB) LostCustomersContext(ctx context.Context, qStar Point, rsl []Item) ([]Item, error) {
	ctx, done := db.obsCtx(ctx, "lost-customers")
	defer done()
	out, err := db.engine.LostCustomersCtx(ctx, qStar, rsl)
	return out, wrapCtxErr("lost customers", err)
}

// BuildApproxStoreContext is BuildApproxStore with deadline/cancellation
// support.
func (db *DB) BuildApproxStoreContext(ctx context.Context, customers []Item, k int) (*ApproxStore, error) {
	ctx, done := db.obsCtx(ctx, "buildstore")
	defer done()
	store, err := db.engine.BuildApproxStoreCtx(ctx, customers, k, 0)
	return store, wrapCtxErr("approx store build", err)
}

// ValidateWhyNotMoveContext is ValidateWhyNotMove with deadline/cancellation
// support.
func (db *DB) ValidateWhyNotMoveContext(ctx context.Context, ct Item, q Point, cand Point, eps float64) (bool, error) {
	ctx, done := db.obsCtx(ctx, "validate-mwp")
	defer done()
	ok, err := db.engine.ValidateWhyNotMoveCtx(ctx, ct, q, cand, eps)
	return ok, wrapCtxErr("why-not move validation", err)
}

// ValidateQueryMoveContext is ValidateQueryMove with deadline/cancellation
// support.
func (db *DB) ValidateQueryMoveContext(ctx context.Context, ct Item, cand Point, eps float64) (bool, error) {
	ctx, done := db.obsCtx(ctx, "validate-mqp")
	defer done()
	ok, err := db.engine.ValidateQueryMoveCtx(ctx, ct, cand, eps)
	return ok, wrapCtxErr("query move validation", err)
}

// GenerateDataset produces one of the paper's experiment datasets: "UN"
// (uniform), "CO" (correlated), "AC" (anti-correlated) in dims dimensions,
// or "CarDB" (the simulated 2-d used-car market).
func GenerateDataset(kind string, n, dims int, seed int64) ([]Item, error) {
	k, err := ParseKind(kind)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(k, n, dims, seed), nil
}

// ParseKind maps the paper's dataset labels onto generator kinds.
func ParseKind(kind string) (datagen.Kind, error) {
	switch kind {
	case "UN", "un", "uniform":
		return datagen.Uniform, nil
	case "CO", "co", "correlated":
		return datagen.Correlated, nil
	case "AC", "ac", "anticorrelated", "anti-correlated":
		return datagen.AntiCorrelated, nil
	case "CarDB", "cardb", "car":
		return datagen.CarDB, nil
	default:
		return 0, &UnknownKindError{Kind: kind}
	}
}

// UnknownKindError reports an unrecognised dataset label.
type UnknownKindError struct{ Kind string }

func (e *UnknownKindError) Error() string {
	return "unknown dataset kind " + e.Kind + " (want UN, CO, AC or CarDB)"
}

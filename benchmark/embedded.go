package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// embeddedSpec defines one single-caller workload on the embedded repro.DB
// in the paper's reference configuration (DBOptions{}: sequential, no
// cache).
type embeddedSpec struct {
	kind    string
	n, dims int
	// targets are the |RSL| sizes asked of dataset.FindQueries; sizes with no
	// hit are skipped, as in the paper's tables.
	targets []int
	// rslCap, when positive, feeds only the first rslCap members of RSL(q)
	// to the safe region, bounding the d ≥ 3 staircase cost.
	rslCap int
	// approx also runs MWQApprox on a k = 10 store (Fig. 17).
	approx bool
}

// fig15 is the paper's Fig. 15/17 timing workload: CarDB-50K, one query
// per |RSL| in 1..15.
var fig15 = embeddedSpec{kind: "CarDB", n: 50_000, dims: 2, targets: sizes(1, 15), approx: true}

// d3 is the region-algebra workload: a d = 3 uniform dataset small enough
// that one exact safe region takes tens to hundreds of milliseconds, with
// the safe region built from two RSL members.
var d3 = embeddedSpec{kind: "UN", n: 60, dims: 3, targets: sizes(1, 40), rslCap: 2}

// approxK is the approximate store's sampling constant (the paper's k = 10).
const approxK = 10

// maxBulkLoads caps the index-build times a run keeps. A small dataset
// builds thousands of times in set-up, and a list that grew with the build
// count would be live heap that varies with the host's speed.
const maxBulkLoads = 100

// costEps absorbs floating-point noise when comparing solution costs.
const costEps = 1e-9

func sizes(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func runFig15(r *run) error { return runEmbedded(r, fig15) }
func runD3(r *run) error    { return runEmbedded(r, d3) }

type embCase struct {
	q    repro.Point
	full []repro.Item // RSL(q) over every customer
	rsl  []repro.Item // the members the safe region is built from
	ct   repro.Item   // the why-not customer
}

type embedded struct {
	r      *run
	spec   embeddedSpec
	items  []repro.Item
	cases  []embCase
	db     *repro.DB
	store  *repro.ApproxStore
	opt    repro.Options
	counts *countBook
	// cost is each case's MWQExact cost from its first execution; every later
	// answer for the case, traced or not, must equal it.
	cost     map[int]float64
	bulkLoad []float64 // ms of the first maxBulkLoads setups' index builds
	setupBad []int     // cases whose RSL the last setup got wrong
	// tracedMWQ is each case's traced MWQExact latencies, compared case by
	// case with the untraced ones for the tracing overhead.
	tracedMWQ map[int][]float64
}

func runEmbedded(r *run, spec embeddedSpec) error {
	e := &embedded{r: r, spec: spec, counts: newCountBook(), cost: map[int]float64{},
		tracedMWQ: map[int][]float64{}}
	cfg := map[string]any{
		"dataset": fmt.Sprintf("%s n=%d d=%d seed=%d", spec.kind, spec.n, spec.dims, dataSeed),
		"workers": 1, "cache_size": 0, "rsl_cap": spec.rslCap, "loop": "closed, single caller",
	}
	if spec.approx {
		cfg["approx_k"] = approxK
	}
	r.stamp["config"] = cfg
	if err := e.inputs(); err != nil {
		return err
	}
	if err := r.timeSetup(e.setup); err != nil {
		return err
	}
	r.attempted += len(e.cases)
	for _, i := range e.setupBad {
		r.failed++
		r.fail("case %d: setup RSL differs from the one the workload selection found", i)
	}
	r.liveHeap()
	e.oracleCheck()

	rng := streamRand(r.seed, "order")
	warm := opLog{}
	for _, i := range rng.Perm(len(e.cases)) {
		e.runCase(i, warm)
	}
	measured := r.seconds
	if r.trace {
		measured = r.seconds / 2
	}
	samples := e.measure(measured, rng)
	e.report(samples)
	if r.trace {
		tr := e.traced(r.seconds-measured, rng)
		e.reportLayers(samples, tr)
	}
	return e.counts.crossCheck(r)
}

// inputs generates the dataset and selects the query workload. Both depend
// only on the workload's fixed seeds.
func (e *embedded) inputs() error {
	s := e.spec
	items, err := repro.GenerateDataset(s.kind, s.n, s.dims, dataSeed)
	if err != nil {
		return err
	}
	e.items = items
	sel := rskyline.NewDB(s.dims, items, rtree.Config{})
	found := dataset.FindQueries(sel, nil, s.targets, 150*len(s.targets), rand.New(rand.NewSource(querySeed)))
	if len(found) == 0 {
		return fmt.Errorf("no query found for %s", e.r.workload)
	}
	var rslSizes []int
	for _, qc := range found {
		c := embCase{q: qc.Q, full: qc.RSL, rsl: qc.RSL, ct: qc.WhyNot}
		if s.rslCap > 0 && len(c.rsl) > s.rslCap {
			c.rsl = c.rsl[:s.rslCap]
		}
		e.cases = append(e.cases, c)
		rslSizes = append(rslSizes, len(qc.RSL))
	}
	e.r.stamp["rsl_sizes"] = rslSizes
	return nil
}

// setup is what a caller pays before the first query: the index bulk load,
// the reverse skylines of the workload's queries (precomputed, as in
// Fig. 15) and, for Fig. 17, the approximate store.
func (e *embedded) setup() (func() error, error) {
	start := time.Now()
	db := repro.NewDBWithOptions(e.spec.dims, e.items, repro.DBOptions{})
	if len(e.bulkLoad) < maxBulkLoads {
		e.bulkLoad = append(e.bulkLoad, ms(time.Since(start)))
	}
	needed := map[int]repro.Item{}
	e.setupBad = e.setupBad[:0]
	for i, c := range e.cases {
		if got := db.ReverseSkyline(e.items, c.q); !sameIDs(got, c.full) {
			e.setupBad = append(e.setupBad, i)
		}
		for _, m := range c.rsl {
			needed[m.ID] = m
		}
	}
	var store *repro.ApproxStore
	if e.spec.approx {
		store = db.BuildApproxStore(sortedItems(needed), approxK)
	}
	e.db, e.store = db, store
	return func() error { return nil }, nil
}

// oracleCheck verifies the workload's reverse skylines against the
// brute-force oracle: in full on small datasets, and on CarDB-50K for three
// seeded cases, every member plus 200 sampled non-members. Each checked
// RSL is one attempt.
func (e *embedded) oracleCheck() {
	rng := streamRand(e.r.seed, "oracle")
	checked := func(i int, err error) {
		e.r.attempted++
		if err != nil {
			e.r.failed++
			e.r.fail("case %d: %v", i, err)
		}
	}
	if len(e.items) <= 1000 {
		for i, c := range e.cases {
			var err error
			if !sameIDs(oracle.ReverseSkyline(e.items, e.items, c.q), c.full) {
				err = errors.New("RSL differs from the oracle")
			}
			checked(i, err)
		}
		return
	}
	for _, i := range rng.Perm(len(e.cases))[:min(3, len(e.cases))] {
		checked(i, oracleSample(e.items, e.cases[i].q, e.cases[i].full, rng))
	}
}

// oracleSample checks a reverse-skyline answer against oracle: every member
// must be one, and 200 sampled non-members must not.
func oracleSample(items []repro.Item, q repro.Point, members []repro.Item, rng *rand.Rand) error {
	in := map[int]bool{}
	for _, m := range members {
		in[m.ID] = true
		if !oracle.IsReverseSkyline(items, m, q) {
			return fmt.Errorf("member %d is not in the oracle's RSL", m.ID)
		}
	}
	for checked := 0; checked < 200; {
		c := items[rng.Intn(len(items))]
		if in[c.ID] {
			continue
		}
		checked++
		if oracle.IsReverseSkyline(items, c, q) {
			return fmt.Errorf("non-member %d is in the oracle's RSL", c.ID)
		}
	}
	return nil
}

// timed runs one operation, records its latency under op and its exact cost
// counters under op/case.
func (e *embedded) timed(samples opLog, op string, i int, f func()) {
	before := e.db.Cost()
	start := time.Now()
	f()
	el := time.Since(start)
	e.counts.observe(e.r, fmt.Sprintf("%s/%02d", op, i), opCounts{Cost: e.db.Cost().Sub(before)})
	samples.add(op, i, ms(el))
}

// runCase runs every operation of the workload on case i and checks the
// answers: cost(MWQ) ≤ cost(MWP) and cost(Approx-MWQ) ≤ cost(MWP) (§VI),
// a repeatable MWQ cost, and the reverse skyline selected for the case.
// One run of a case is one attempt, failed when any of its answers is wrong.
func (e *embedded) runCase(i int, samples opLog) {
	e.r.attempted++
	c := e.cases[i]
	var mwq, apx repro.MWQResult
	var mwp repro.MWPResult
	var mqp repro.MQPResult
	var rsl []repro.Item
	e.timed(samples, "mwq", i, func() { mwq = e.db.MWQExact(c.ct, c.q, c.rsl, e.opt) })
	e.timed(samples, "mwp", i, func() { mwp = e.db.MWP(c.ct, c.q, e.opt) })
	e.timed(samples, "mqp", i, func() { mqp = e.db.MQP(c.ct, c.q, e.opt) })
	if e.store != nil {
		e.timed(samples, "approx", i, func() { apx = e.db.MWQApprox(c.ct, c.q, c.rsl, e.store, e.opt) })
	}
	e.timed(samples, "rsl", i, func() { rsl = e.db.ReverseSkyline(e.items, c.q) })

	bad := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad++
			e.r.fail("case %d: "+format, append([]any{i}, args...)...)
		}
	}
	best := mwp.Best().Cost
	check(!mwq.AlreadyMember, "the why-not customer is already a member")
	check(mwq.Cost <= best+costEps, "cost(MWQ) %.12g > cost(MWP) %.12g", mwq.Cost, best)
	check(len(mqp.Candidates) > 0, "MQP returned no candidate")
	if e.store != nil {
		check(apx.Cost <= best+costEps, "cost(Approx-MWQ) %.12g > cost(MWP) %.12g", apx.Cost, best)
	}
	check(sameIDs(rsl, c.full), "RSL has %d members, want %d", len(rsl), len(c.full))
	if first, ok := e.cost[i]; ok {
		check(math.Abs(first-mwq.Cost) <= costEps, "MWQ cost %.12g, earlier %.12g", mwq.Cost, first)
	} else {
		e.cost[i] = mwq.Cost
	}
	if bad > 0 {
		e.r.failed++
	}
}

// measure cycles through the cases in seeded order until d has passed.
func (e *embedded) measure(d time.Duration, rng *rand.Rand) opLog {
	samples := opLog{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, i := range rng.Perm(len(e.cases)) {
			e.runCase(i, samples)
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	return samples
}

func (e *embedded) report(samples opLog) {
	r := e.r
	t, ok := blockTail(samples["mwq"].seq)
	if !ok {
		r.fail("only %d MWQ samples; a tail needs more than %d in each of %d blocks", t.Samples, 2*tailBeyond, tailBlocks)
	}
	r.set("whynot_fast_ms", samples["mwq"].caseMin())
	r.set("whynot_tail_ms", t.Value)
	r.set("rskyline_fast_ms", samples["rsl"].caseMin())
	r.stamp["whynot_tail"] = t
	ops := map[string]any{}
	for op, o := range samples {
		ot, _ := tail(o.seq)
		ops[op] = map[string]any{"min_ms": o.caseMin(), "p10_ms": o.caseQuantile(10), "p50_ms": o.caseQuantile(50), "tail": ot}
	}
	r.stamp["ops"] = ops
}

// traced re-runs the cases for d with a span around every call into a
// layer, decomposing MWQExact the way Algorithm 3 and 4 run inside it:
// DSL per RSL member (skyline over rtree), anti-DDR staircase and
// rectangle-set intersection (region), then Algorithm 4 (whynot). The
// approximate safe region, the reverse skyline and the membership test get
// a span each. The first pass covers every case once, so the rectangle
// figures average every case.
func (e *embedded) traced(d time.Duration, rng *rand.Rand) *tracer {
	tr := newTracer()
	eng := e.db.Engine()
	rdb := eng.DB
	universe, _ := rdb.Universe()
	decomposed := map[int]bool{}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, i := range rng.Perm(len(e.cases)) {
			c := e.cases[i]
			root := tr.begin("whynot.mwq_exact")
			srSpan := tr.begin("whynot.saferegion")
			var sr region.Set
			var rects opCounts
			for j, m := range c.rsl {
				var dsl []repro.Item
				var add region.Set
				tr.do("skyline.dsl", func() { dsl = rdb.DynamicSkylineExcluding(m.Point, m.ID) })
				tr.do("region.antiddr", func() { add = region.AntiDDR(m.Point, pointsOf(dsl), universe) })
				tr.do("region.intersect", func() {
					if j == 0 {
						sr = append(region.Set{}, add...)
					} else {
						sr = sr.IntersectSet(add)
					}
				})
				rects.Rects += len(add)
				rects.PeakRects = max(rects.PeakRects, len(sr))
			}
			if !sr.Contains(c.q) {
				sr = append(sr, geom.PointRect(c.q))
			}
			tr.end(srSpan)
			e.counts.observe(e.r, fmt.Sprintf("saferegion/%02d", i), rects)
			var res repro.MWQResult
			tr.do("whynot.alg4", func() { res = eng.MWQ(c.ct, c.q, sr, e.opt) })
			tr.end(root)
			e.tracedMWQ[i] = append(e.tracedMWQ[i], float64(tr.spans[root].dur())/1e6)

			if e.store != nil {
				tr.do("whynot.approx_saferegion", func() { eng.ApproxSafeRegion(c.q, c.rsl, e.store) })
			}
			var member bool
			tr.do("rskyline.rsl", func() { rdb.ReverseSkylineFiltered(e.items, c.q) })
			tr.do("rskyline.membership", func() { member = rdb.IsReverseSkyline(c.ct, c.q) })

			e.r.attempted++
			ok := !member && math.Abs(res.Cost-e.cost[i]) <= costEps
			if !ok {
				e.r.fail("case %d: traced MWQ cost %.12g (member %v), untraced %.12g", i, res.Cost, member, e.cost[i])
			}
			if !decomposed[i] {
				decomposed[i] = true
				if !region.Equivalent(sr, eng.SafeRegion(c.q, c.rsl)) {
					ok = false
					e.r.fail("case %d: the traced decomposition's safe region differs from Engine.SafeRegion", i)
				}
			}
			if !ok {
				e.r.failed++
			}
			if !first && !time.Now().Before(deadline) {
				break
			}
		}
	}
	var rects, antiDDRs, peak int
	for i, c := range e.cases {
		rc := e.counts.first[fmt.Sprintf("saferegion/%02d", i)]
		rects += rc.Rects
		antiDDRs += len(c.rsl)
		peak = max(peak, rc.PeakRects)
	}
	e.r.set("region.rects_per_antiddr", ratio(float64(rects), float64(antiDDRs)))
	e.r.set("region.rects_peak", float64(peak))
	return tr
}

// reportLayers turns the untraced samples, the exact counts and the traced
// spans into the per-layer metrics, and prints the self-time table.
func (e *embedded) reportLayers(samples opLog, tr *tracer) {
	r := e.r
	st := selfTimes(tr.spans)
	mwq := e.counts.meanCost("mwq")
	rsl := e.counts.meanCost("rsl")
	r.set("rtree.node_accesses", mwq["node_accesses"])
	r.set("rtree.leaf_scans", mwq["leaf_scans"])
	r.set("rtree.bulk_load_ms", median(e.bulkLoad))
	r.set("skyline.dsl_ms", st["skyline.dsl"].meanMS())
	r.set("skyline.dsl_computations", mwq["dsl_computations"])
	r.set("skyline.dominance_tests", mwq["dominance_tests"])
	r.set("rskyline.rsl_ms", st["rskyline.rsl"].meanMS())
	r.set("rskyline.membership_us", st["rskyline.membership"].meanMS()*1e3)
	r.set("rskyline.window_queries", rsl["window_queries"])
	r.set("rskyline.prune_ratio", 1-rsl["window_queries"]/float64(len(e.items)))
	r.set("region.antiddr_ms", st["region.antiddr"].meanMS())
	r.set("region.intersect_ms", st["region.intersect"].meanMS())
	r.set("whynot.saferegion_ms", st["whynot.saferegion"].meanMS())
	r.set("whynot.saferegion_share", ratio(float64(st["whynot.saferegion"].Total), float64(st["whynot.mwq_exact"].Total)))
	r.set("whynot.alg4_ms", st["whynot.alg4"].meanMS())
	r.set("whynot.saferegion_vertices", mwq["saferegion_vertices"])
	r.set("whynot.candidate_evaluations", mwq["candidate_evaluations"])
	r.set("whynot.approx_saferegion_us", st["whynot.approx_saferegion"].meanMS()*1e3)
	r.set("whynot.mwp_ms", samples["mwp"].caseMin())
	r.set("whynot.mqp_ms", samples["mqp"].caseMin())
	if e.store != nil {
		r.set("whynot.approx_mwq_ms", samples["approx"].caseMin())
	}
	var overhead []float64
	for i, xs := range e.tracedMWQ {
		if ys := samples["mwq"].byCase[i]; len(ys) > 0 {
			overhead = append(overhead, percentile(xs, 0)-percentile(ys, 0))
		}
	}
	r.set("obs.trace_overhead_ms", mean(overhead))

	printMWQTable(st)
	dir, err := r.buildDir("spans")
	if err == nil {
		err = writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)), tr.spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
	}
}

// printMWQTable prints the self time of each layer per MWQExact answer with
// its share of the answer, and names the safe region's largest child: the
// Fig. 15 finding is that the safe region dominates MWQ.
func printMWQTable(st map[string]layerTime) {
	root := st["whynot.mwq_exact"]
	if root.Calls == 0 {
		return
	}
	fmt.Printf("self time per MWQExact answer (%d traced answers):\n", root.Calls)
	fmt.Printf("  %-22s %10s %12s %8s\n", "span", "calls/op", "self ms/op", "share")
	for _, name := range []string{"whynot.mwq_exact", "whynot.saferegion", "skyline.dsl", "region.antiddr", "region.intersect", "whynot.alg4"} {
		lt := st[name]
		fmt.Printf("  %-22s %10.2f %12.4f %7.1f%%\n", name, float64(lt.Calls)/float64(root.Calls),
			float64(lt.Self)/float64(root.Calls)/1e6, 100*float64(lt.Self)/float64(root.Total))
	}
	children := []string{"skyline.dsl", "region.antiddr", "region.intersect"}
	sort.Slice(children, func(a, b int) bool { return st[children[a]].Self > st[children[b]].Self })
	fmt.Printf("safe region: %.1f%% of MWQExact; its largest child: %s (%.1f%% of the safe region)\n",
		100*float64(st["whynot.saferegion"].Total)/float64(root.Total), children[0],
		100*float64(st[children[0]].Self)/float64(st["whynot.saferegion"].Total))
}

func pointsOf(items []repro.Item) []geom.Point {
	out := make([]geom.Point, len(items))
	for i, it := range items {
		out[i] = it.Point
	}
	return out
}

func sortedItems(m map[int]repro.Item) []repro.Item {
	out := make([]repro.Item, 0, len(m))
	for _, it := range m {
		out = append(out, it)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func idsOf(items []repro.Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

func sameIDs(a, b []repro.Item) bool { return equalInts(idsOf(a), idsOf(b)) }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
)

// The serving workloads run internal/server in-process with the cmd/serve
// defaults behind a loopback listener, and drive it from one process with
// an open-loop, seeded Poisson schedule over at most readConns connections.
const (
	serveKind   = "CarDB"
	serveN      = 50_000
	serveCache  = 4096 // cmd/serve -cache default
	readConns   = 2
	whyNotShare = 0.8
	// zipfS and the pool size (one query per |RSL| in 1..15, pairsPerQuery
	// customers each) are synthetic choices, not measured from any request
	// log. The customers the pool can touch number far fewer than
	// serveCache, so the DSL and anti-DDR caches never evict here: their
	// metrics show a change in what is cached, not in cache capacity.
	zipfS         = 1.1
	pairsPerQuery = 4
	// readRate is the fixed offered read rate: a quarter of the capacity
	// measured on a 2-CPU host, low enough that run-to-run spread stays
	// inside the benchmark's bounds.
	readRate = 10.0
	// mutationEvery spaces the durable mutations of the write phase.
	mutationEvery = 2 * time.Second
	// latencyLimitMS bounds the why-not tail a capacity-ladder rate must meet.
	latencyLimitMS = 250.0
	// lagLimitMS invalidates a run whose generator sent its tail this late.
	lagLimitMS = 25.0
	warmup     = 2 * time.Second
	ladderStep = 4 * time.Second
)

// capacityLadder is the fixed set of offered read rates capacity_qps is
// chosen from.
var capacityLadder = []float64{10, 20, 30, 40, 50}

// pair is one (q, why-not customer) of the request pool.
type pair struct {
	query int
	q     repro.Point
	ct    repro.Item
}

type serveRun struct {
	r       *run
	items   []repro.Item
	queries []dataset.QueryCase
	rslIDs  [][]int // expected RSL(q) IDs, sorted, per query
	pairs   []pair  // in fixed popularity order: index 0 is the most requested
	expect  []repro.MWQResult
	live    *liveServer
	client  *http.Client
	admin   *http.Client
	// Snapshot sequence numbers whose dataset is the base item set (boot and
	// after each delete) or carries one inserted item.
	baseSeqs, insertSeqs map[uint64]bool
	nextID               int
	universe             repro.Rect
}

// runServeRead drives the memory-only server that every end-to-end metric
// of the serving workload comes from. Its traced run adds a write phase on a
// second, durable server for the WAL and mutation-path layers.
func runServeRead(r *run) error {
	w := &serveRun{
		r:        r,
		baseSeqs: map[uint64]bool{1: true}, insertSeqs: map[uint64]bool{},
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: readConns, MaxIdleConnsPerHost: readConns, DisableCompression: true}},
		admin: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	defer w.client.CloseIdleConnections()
	defer w.admin.CloseIdleConnections()
	if err := w.inputs(); err != nil {
		return err
	}
	cfg := map[string]any{
		"dataset": fmt.Sprintf("%s n=%d d=2 seed=%d", serveKind, serveN, dataSeed),
		"workers": "GOMAXPROCS", "cache_size": serveCache, "admission": "cmd/serve defaults",
		"loop": fmt.Sprintf("open, Poisson %.0f reads/s over %d connections, %.0f%% whynot, Zipf s=%.1f over %d pairs",
			readRate, readConns, 100*whyNotShare, zipfS, len(w.pairs)),
		"cache_working_set": w.workingSet(),
		"wal":               "none",
	}
	if r.trace {
		cfg["write_phase"] = fmt.Sprintf("second server, wal fsync=always, the read load plus one insert or delete every %v", mutationEvery)
	}
	r.stamp["config"] = cfg
	err := r.timeSetup(func() (func() error, error) {
		ls, err := boot("", w.admin)
		if err != nil {
			return nil, err
		}
		w.live = ls
		return ls.stop, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := w.live.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: server shutdown:", err)
		}
	}()
	if n := len(w.live.s.Snapshot().Items); n != len(w.items) {
		return fmt.Errorf("server serves %d items, the benchmark generated %d", n, len(w.items))
	}
	r.liveHeap()

	w.warmCaches()
	w.load(warmup, "warmup", false, false)
	if !r.trace {
		outs, _ := w.load(r.seconds, "measure", false, false)
		w.report(outs)
		return nil
	}
	return w.tracedRun()
}

// inputs generates the dataset the server boots with and the request pool:
// one query per |RSL| in 1..15 (as in Fig. 15), each with pairsPerQuery
// why-not customers outside its RSL, and the expected answer of every pair
// from the embedded reference configuration.
func (w *serveRun) inputs() error {
	items, err := repro.GenerateDataset(serveKind, serveN, 2, dataSeed)
	if err != nil {
		return err
	}
	w.items = items
	for _, it := range items {
		w.nextID = max(w.nextID, it.ID+1)
	}
	sel := rskyline.NewDB(2, items, rtree.Config{})
	w.universe, _ = sel.Universe()
	w.queries = dataset.FindQueries(sel, nil, sizes(1, 15), 150*15, rand.New(rand.NewSource(querySeed)))
	rng := rand.New(rand.NewSource(querySeed + 1))
	for qi, qc := range w.queries {
		w.rslIDs = append(w.rslIDs, idsOf(qc.RSL))
		in := map[int]bool{qc.WhyNot.ID: true}
		for _, m := range qc.RSL {
			in[m.ID] = true
		}
		w.pairs = append(w.pairs, pair{qi, qc.Q, qc.WhyNot})
		for k := 1; k < pairsPerQuery; {
			ct := items[rng.Intn(len(items))]
			if !in[ct.ID] {
				in[ct.ID] = true
				w.pairs = append(w.pairs, pair{qi, qc.Q, ct})
				k++
			}
		}
	}
	rng.Shuffle(len(w.pairs), func(a, b int) { w.pairs[a], w.pairs[b] = w.pairs[b], w.pairs[a] })
	ref := repro.NewDB(2, items)
	for _, p := range w.pairs {
		w.expect = append(w.expect, ref.MWQExact(p.ct, p.q, w.queries[p.query].RSL, repro.Options{}))
	}
	return nil
}

// workingSet counts the customers whose DSL or anti-DDR the pool's why-not
// requests can cache: the RSL members of its queries and its customers.
func (w *serveRun) workingSet() int {
	ids := map[int]bool{}
	for _, p := range w.pairs {
		ids[p.ct.ID] = true
		for _, m := range w.queries[p.query].RSL {
			ids[m.ID] = true
		}
	}
	return len(ids)
}

type liveServer struct {
	s      *server.Server
	base   string
	done   chan error
	walDir string // removed on stop; empty without a WAL
}

func serverConfig(walDir string) server.Config {
	cfg := server.Config{
		Workers:        -1,
		CacheSize:      serveCache,
		Breaker:        server.BreakerConfig{OpenFor: 2 * time.Second},
		RungTimeout:    2 * time.Second,
		RequestTimeout: 10 * time.Second,
		Dataset: server.DatasetSpec{
			Generate: &server.GenerateSpec{Kind: serveKind, N: serveN, Dims: 2, Seed: dataSeed},
			K:        10,
		},
	}
	if walDir != "" {
		cfg.Durability = &wal.Options{Dir: walDir, Policy: wal.SyncAlways,
			Interval: 50 * time.Millisecond, SegmentBytes: 4 << 20}
	}
	return cfg
}

// boot starts a server, durable in a fresh WAL directory under walRoot when
// walRoot is set, and returns once /v1/readyz answers 200.
func boot(walRoot string, admin *http.Client) (*liveServer, error) {
	walDir := ""
	if walRoot != "" {
		d, err := os.MkdirTemp(walRoot, "wal-")
		if err != nil {
			return nil, err
		}
		walDir = d
	}
	s, err := server.New(context.Background(), serverConfig(walDir))
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(walDir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.Shutdown(context.Background()), os.RemoveAll(walDir))
	}
	ls := &liveServer{s: s, base: "http://" + ln.Addr().String(), done: make(chan error, 1), walDir: walDir}
	go func() { ls.done <- s.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := admin.Get(ls.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("server not ready after 10s"), ls.stop())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := errors.Join(l.s.Shutdown(ctx), <-l.done)
	if l.walDir != "" {
		err = errors.Join(err, os.RemoveAll(l.walDir))
	}
	return err
}

type whyNotResp struct {
	Case          int     `json:"case"`
	Cost          float64 `json:"cost"`
	Rung          string  `json:"rung"`
	Degraded      bool    `json:"degraded"`
	RSLSize       int     `json:"rsl_size"`
	AlreadyMember bool    `json:"already_member"`
	SnapshotSeq   uint64  `json:"snapshot_seq"`
	Trace         []struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"trace"`
}

type rskyResp struct {
	Count       int    `json:"count"`
	CustomerIDs []int  `json:"customer_ids"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
}

// outcome is one read of the open-loop load. Times are offsets from the
// load's start: lat runs from the scheduled send, so waiting for a free
// connection counts; svc runs from the actual send.
type outcome struct {
	req request
	lag time.Duration
	lat time.Duration
	svc time.Duration
	err error
	wn  whyNotResp
	rs  rskyResp
	bad bool // failed a check: already counted as failed
}

type mutation struct {
	insert bool
	lat    time.Duration
	err    error
	seq    uint64
}

// load runs the seeded read schedule at readRate for dur (and, with
// mutations, the write schedule beside it) and checks every answer.
func (w *serveRun) load(dur time.Duration, stream string, mutations, traced bool) ([]outcome, []mutation) {
	plan := readPlan(w.r.seed, stream, readRate, dur, len(w.pairs))
	start := time.Now()
	var muts []mutation
	var wg sync.WaitGroup
	if mutations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			muts = w.mutate(start, dur, streamRand(w.r.seed, stream+"/mutations"))
		}()
	}
	outs := w.openLoop(start, plan, traced)
	wg.Wait()
	w.check(outs, muts)
	return outs, muts
}

// warmCaches sends every pair's why-not request and every query's reverse
// skyline once, as fast as the connections allow, and checks the answers.
// The timed load then meets the caches of a server that has run for a
// while. Without it about a fifth of the timed why-not requests were a
// pair's first, and the tail fell on the border between those and the rest.
func (w *serveRun) warmCaches() {
	var plan []request
	queried := map[int]bool{}
	for i, p := range w.pairs {
		plan = append(plan, request{Kind: kindWhyNot, Pair: i})
		if !queried[p.query] {
			queried[p.query] = true
			plan = append(plan, request{Kind: kindRSkyline, Pair: i})
		}
	}
	w.check(w.openLoop(time.Now(), plan, false), nil)
}

// openLoop sends plan on schedule from start. The dispatcher never waits for
// a connection: requests queue for one of readConns senders, and a stall
// shows as latency of every request behind it.
func (w *serveRun) openLoop(start time.Time, plan []request, traced bool) []outcome {
	outs := make([]outcome, len(plan))
	queue := make(chan int, len(plan)) // one slot per scheduled send: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < readConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				w.send(&outs[i], start, traced)
			}
		}()
	}
	for i, req := range plan {
		if d := time.Until(start.Add(req.At)); d > 0 {
			time.Sleep(d)
		}
		outs[i].req = req
		outs[i].lag = time.Since(start) - req.At
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

func (w *serveRun) send(o *outcome, start time.Time, traced bool) {
	p := w.pairs[o.req.Pair]
	var path string
	var body any
	if o.req.Kind == kindWhyNot {
		path = "/v1/whynot"
		body = server.WhyNotRequest{Q: p.q, CustomerID: p.ct.ID, Trace: traced}
	} else {
		path = "/v1/rskyline"
		body = server.RSkylineRequest{Q: p.q}
	}
	sent := time.Since(start)
	var dst any = &o.wn
	if o.req.Kind == kindRSkyline {
		dst = &o.rs
	}
	o.err = post(w.client, w.live.base+path, body, dst)
	done := time.Since(start)
	o.lat, o.svc = done-o.req.At, done-sent
}

// post sends body as JSON and decodes a 200 answer into dst.
func post(c *http.Client, url string, body, dst any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, dst)
}

// mutate inserts an item and deletes it again, alternately, one mutation
// every mutationEvery from start, ending on a delete so the dataset is back
// to its base item set. Inserted points are drawn inside the data universe.
func (w *serveRun) mutate(start time.Time, dur time.Duration, rng *rand.Rand) []mutation {
	n := int(dur / mutationEvery)
	n += n % 2
	var out []mutation
	var id int
	for i := 0; i < n; i++ {
		at := mutationEvery/2 + time.Duration(i)*mutationEvery
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		m := mutation{insert: i%2 == 0}
		var resp struct {
			SnapshotSeq uint64 `json:"snapshot_seq"`
		}
		if m.insert {
			id = w.nextID
			w.nextID++
			pt := make([]float64, 2)
			for j := range pt {
				pt[j] = w.universe.Lo[j] + rng.Float64()*(w.universe.Hi[j]-w.universe.Lo[j])
			}
			m.err = post(w.admin, w.live.base+"/v1/admin/insert", server.InsertRequest{ID: id, Point: pt}, &resp)
		} else {
			m.err = post(w.admin, w.live.base+"/v1/admin/delete", server.DeleteRequest{ID: id}, &resp)
		}
		m.lat = time.Since(start) - at
		m.seq = resp.SnapshotSeq
		out = append(out, m)
	}
	return out
}

// check counts every read and mutation as attempted and every failed, shed,
// degraded or wrong one as failed. A read answered by a snapshot holding an
// inserted item is checked for rung and status only: its expected values
// are those of the base item set.
func (w *serveRun) check(outs []outcome, muts []mutation) {
	r := w.r
	for _, m := range muts {
		r.attempted++
		if m.err != nil {
			r.failed++
			r.fail("mutation: %v", m.err)
			continue
		}
		if m.insert {
			w.insertSeqs[m.seq] = true
		} else {
			w.baseSeqs[m.seq] = true
		}
	}
	for i := range outs {
		o := &outs[i]
		r.attempted++
		if err := w.checkRead(o); err != nil {
			o.bad = true
			r.failed++
			r.fail("%s pair %d: %v", o.req.Kind, o.req.Pair, err)
		}
	}
}

func (w *serveRun) checkRead(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	p := w.pairs[o.req.Pair]
	seq := o.rs.SnapshotSeq
	if o.req.Kind == kindWhyNot {
		seq = o.wn.SnapshotSeq
	}
	base := w.baseSeqs[seq]
	if !base && !w.insertSeqs[seq] {
		return fmt.Errorf("answered by unknown snapshot %d", seq)
	}
	if o.req.Kind == kindRSkyline {
		if base && !equalInts(sortedInts(o.rs.CustomerIDs), w.rslIDs[p.query]) {
			return fmt.Errorf("RSL has %d members, want %d", o.rs.Count, len(w.rslIDs[p.query]))
		}
		return nil
	}
	wn, want := o.wn, w.expect[o.req.Pair]
	switch {
	case wn.AlreadyMember:
		return errors.New("answered already_member for a customer outside RSL(q)")
	case wn.Rung != "exact" || wn.Degraded:
		return fmt.Errorf("answered on rung %q (degraded %v), want exact", wn.Rung, wn.Degraded)
	case !base:
		return nil
	case wn.RSLSize != len(w.rslIDs[p.query]):
		return fmt.Errorf("rsl_size %d, want %d", wn.RSLSize, len(w.rslIDs[p.query]))
	case wn.Case != int(want.Case) || math.Abs(wn.Cost-want.Cost) > costEps:
		return fmt.Errorf("case %d cost %.12g, want case %d cost %.12g", wn.Case, wn.Cost, want.Case, want.Cost)
	}
	return nil
}

func sortedInts(xs []int) []int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s
}

// latencies returns the latency samples in ms of one read kind; fromSend
// measures from the actual send instead of the scheduled one.
func latencies(outs []outcome, kind reqKind, fromSend bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.req.Kind == kind && o.err == nil {
			d := o.lat
			if fromSend {
				d = o.svc
			}
			xs = append(xs, ms(d))
		}
	}
	return xs
}

// report sets the end-to-end metrics of a measured read load, after the
// validity gate on the generator's lateness.
func (w *serveRun) report(outs []outcome) {
	r := w.r
	wn := latencies(outs, kindWhyNot, false)
	t, ok := blockTail(wn)
	if !ok {
		r.fail("only %d why-not samples; a tail needs more than %d in each of %d blocks", t.Samples, 2*tailBeyond, tailBlocks)
	}
	r.set("whynot_fast_ms", percentile(wn, fastPct))
	r.set("whynot_tail_ms", t.Value)
	r.set("rskyline_fast_ms", percentile(latencies(outs, kindRSkyline, false), fastPct))
	r.stamp["whynot_tail"] = t
	lag := w.gateLag(outs)
	r.set("loadgen.lag_tail_ms", lag)
	r.stamp["loadgen_lag_tail_ms"] = lag
	w.oracleCheck(outs)
}

// gateLag returns how late the open-loop generator sent its tail, in ms, and
// marks the run invalid when that exceeds lagLimitMS.
func (w *serveRun) gateLag(outs []outcome) float64 {
	var lags []float64
	for _, o := range outs {
		lags = append(lags, ms(o.lag))
	}
	lt, _ := tail(lags)
	if lt.Value > lagLimitMS {
		w.r.fail("invalid run: the load generator's lag tail %.1f ms exceeds %.0f ms", lt.Value, lagLimitMS)
	}
	return lt.Value
}

// oracleCheck verifies three seeded reverse-skyline answers of the base
// item set, among those that passed every other check, against the
// brute-force oracle; a mismatch counts the read as failed.
func (w *serveRun) oracleCheck(outs []outcome) {
	rng := streamRand(w.r.seed, "oracle")
	var picked []outcome
	for _, i := range rng.Perm(len(outs)) {
		o := outs[i]
		if o.req.Kind == kindRSkyline && !o.bad && w.baseSeqs[o.rs.SnapshotSeq] {
			picked = append(picked, o)
			if len(picked) == 3 {
				break
			}
		}
	}
	byID := make(map[int]repro.Item, len(w.items))
	for _, it := range w.items {
		byID[it.ID] = it
	}
	for _, o := range picked {
		members := make([]repro.Item, 0, len(o.rs.CustomerIDs))
		for _, id := range o.rs.CustomerIDs {
			members = append(members, byID[id])
		}
		if err := oracleSample(w.items, w.pairs[o.req.Pair].q, members, rng); err != nil {
			w.r.failed++
			w.r.fail("rskyline pair %d: %v", o.req.Pair, err)
		}
	}
}

// tracedRun measures the per-layer metrics: a read load with every why-not
// request traced by the server and registry deltas over it, the capacity
// ladder, an unloaded pass timing the layers the server's trace does not
// span, and the write phase.
func (w *serveRun) tracedRun() error {
	r := w.r
	before, err := w.metricsJSON()
	if err != nil {
		return err
	}
	recs, err := w.flightRecords()
	if err != nil {
		return err
	}
	var lastID uint64
	for _, rec := range recs {
		lastID = max(lastID, rec.ID)
	}
	snap := w.live.s.Snapshot() // no mutation runs in this phase: one snapshot serves it
	snap0, cost0 := countsOf(snap), obs.Cost()
	outs, _ := w.load(r.seconds, "measure", false, true)
	snapDelta, cost := countsOf(snap).sub(snap0), obs.Cost().Sub(cost0)
	after, err := w.metricsJSON()
	if err != nil {
		return err
	}
	w.report(outs)
	reads := float64(len(outs))

	r.set("exec.dsl_cache_hit_rate", snapDelta.cache.DSL.HitRate())
	r.set("exec.antiddr_cache_hit_rate", snapDelta.cache.AntiDDR.HitRate())
	r.set("exec.cache_evictions", float64(snapDelta.cache.DSL.Evictions+snapDelta.cache.AntiDDR.Evictions))
	r.set("rtree.node_accesses", float64(snapDelta.accesses)/reads)
	r.set("rtree.leaf_scans", float64(snapDelta.leafScans)/reads)
	r.set("skyline.dsl_computations", float64(cost.DSLComputations)/reads)
	r.set("skyline.dominance_tests", float64(cost.DominanceTests)/reads)
	r.set("rskyline.window_queries", float64(cost.WindowQueries)/reads)
	r.set("whynot.saferegion_vertices", float64(cost.SafeRegionVertices)/reads)
	r.set("whynot.candidate_evaluations", float64(cost.CandidateEvaluations)/reads)
	for _, rung := range []string{"exact", "approx", "mwp"} {
		r.set("engine.rung_attempts."+rung, after.labeled("engine_rung_attempts_total")[rung]-before.labeled("engine_rung_attempts_total")[rung])
	}
	r.set("engine.degradations", sum(after.labeled("engine_degradations_total"))-sum(before.labeled("engine_degradations_total")))
	r.set("server.sheds", sum(after.labeled("server_shed_total"))-sum(before.labeled("server_shed_total")))

	var queueWait []float64
	var sr, alg4 float64
	var traced int
	for _, o := range outs {
		if o.req.Kind != kindWhyNot || o.err != nil {
			continue
		}
		traced++
		for _, sp := range o.wn.Trace {
			switch {
			case sp.Name == "admission":
				queueWait = append(queueWait, sp.DurationMS)
			case strings.HasPrefix(sp.Name, "saferegion."):
				sr += sp.DurationMS
			case sp.Name == "mwq":
				alg4 += sp.DurationMS
			}
		}
	}
	qt, _ := tail(queueWait)
	r.set("server.queue_wait_tail_ms", qt.Value)
	r.set("whynot.saferegion_ms", ratio(sr, float64(traced)))
	r.set("whynot.alg4_ms", ratio(alg4, float64(traced)))
	r.set("whynot.saferegion_share", ratio(sr, sr+alg4))
	if err := w.httpOverhead(outs, lastID); err != nil {
		return err
	}
	r.set("server.capacity_qps", w.capacity())
	w.unloadedLayers()
	return w.writePhase()
}

// writePhase boots a second, durable server (WAL fsync=always, the cmd/serve
// default once a WAL directory is set) and runs the read load with one
// insert or delete every mutationEvery beside it. Each mutation rebuilds the
// snapshot, appends and fsyncs the WAL and retires every cache. The phase
// yields the WAL and mutation-path layers; every bounded metric comes from
// the memory-only server.
func (w *serveRun) writePhase() error {
	r := w.r
	root, err := r.buildDir("tmp")
	if err != nil {
		return err
	}
	durable, err := boot(root, w.admin)
	if err != nil {
		return err
	}
	memoryOnly := w.live
	defer func() { w.live = memoryOnly }()
	w.live, w.baseSeqs, w.insertSeqs = durable, map[uint64]bool{1: true}, map[uint64]bool{}
	before, err := w.metricsJSON()
	if err != nil {
		return errors.Join(err, durable.stop())
	}
	stale0 := obs.Cost().CacheStale
	outs, muts := w.load(r.seconds, "write", true, false)
	stale := obs.Cost().CacheStale - stale0
	after, err := w.metricsJSON()
	if err := errors.Join(err, durable.stop()); err != nil {
		return err
	}
	w.gateLag(outs)

	var lat []float64
	for _, m := range muts {
		lat = append(lat, ms(m.lat))
	}
	mt, _ := tail(lat)
	r.stamp["mutation_tail"] = mt
	r.set("server.mutation_p50_ms", median(lat))
	r.set("server.mutation_tail_ms", mt.Value)
	r.set("exec.cache_stale_on_arrival", float64(stale))
	n0, s0 := before.histogram("wal_fsync_seconds")
	n1, s1 := after.histogram("wal_fsync_seconds")
	r.set("wal.fsync_ms", 1e3*ratio(s1-s0, n1-n0))
	r.set("wal.bytes_per_mutation", ratio(after.counter("wal_bytes_total")-before.counter("wal_bytes_total"),
		after.counter("wal_appends_total")-before.counter("wal_appends_total")))
	return w.walAppend()
}

type flightRecord struct {
	ID         uint64  `json:"id"`
	Op         string  `json:"op"`
	DurationMS float64 `json:"duration_ms"`
}

// flightRecords reads the server's recent flight records, newest first.
func (w *serveRun) flightRecords() ([]flightRecord, error) {
	var body struct {
		Recent []flightRecord `json:"recent"`
	}
	resp, err := w.admin.Get(w.live.base + "/v1/debug/queries")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/debug/queries: %w", err)
	}
	return body.Recent, nil
}

// httpOverhead compares the client's why-not latency from the actual send
// with the server's own handler time: the flight records the load left
// (those after sinceID, as many as the recorder's ring keeps) against as
// many of the load's last-completed why-not requests.
func (w *serveRun) httpOverhead(outs []outcome, sinceID uint64) error {
	recs, err := w.flightRecords()
	if err != nil {
		return err
	}
	var serverSide []float64
	for _, rec := range recs {
		if rec.ID > sinceID && rec.Op == "whynot" {
			serverSide = append(serverSide, rec.DurationMS)
		}
	}
	var done []outcome
	for _, o := range outs {
		if o.req.Kind == kindWhyNot && o.err == nil {
			done = append(done, o)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].req.At+done[a].lat < done[b].req.At+done[b].lat })
	done = done[max(0, len(done)-len(serverSide)):]
	w.r.set("server.http_overhead_ms", median(latencies(done, kindWhyNot, true))-median(serverSide))
	return nil
}

// capacity offers each ladder rate in turn and returns the highest one whose
// why-not tail stays under latencyLimitMS with no failure, no shed and no
// backlog left when the schedule ends.
func (w *serveRun) capacity() float64 {
	best := 0.0
	steps := map[string]any{}
	for _, rate := range capacityLadder {
		plan := readPlan(w.r.seed, fmt.Sprintf("ladder/%.0f", rate), rate, ladderStep, len(w.pairs))
		start := time.Now()
		outs := w.openLoop(start, plan, false)
		backlog := time.Since(start) - ladderStep
		failures := 0
		for i := range outs {
			if outs[i].err != nil {
				failures++
			}
		}
		t, _ := tail(latencies(outs, kindWhyNot, false))
		ok := failures == 0 && t.Value <= latencyLimitMS && backlog < time.Second
		steps[fmt.Sprintf("%.0f", rate)] = map[string]any{"whynot_tail_ms": t.Value, "failures": failures, "backlog_ms": ms(backlog), "ok": ok}
		if !ok {
			break
		}
		best = rate
	}
	w.r.stamp["capacity_ladder"] = steps
	return best
}

// unloadedLayers times, one call at a time on the serving snapshot, the
// layers the server's trace does not span: membership, the per-request
// reverse skyline over every customer, and the index bulk load a mutation
// pays.
func (w *serveRun) unloadedLayers() {
	r := w.r
	snap := w.live.s.Snapshot()
	rdb := snap.DB.Engine().DB
	tr := newTracer()
	before := obs.Cost().WindowQueries
	for _, qc := range w.queries {
		tr.do("rskyline.rsl", func() { rdb.ReverseSkylineFiltered(snap.Items, qc.Q) })
	}
	verified := obs.Cost().WindowQueries - before
	for _, p := range w.pairs {
		tr.do("rskyline.membership", func() { rdb.IsReverseSkyline(p.ct, p.q) })
	}
	st := selfTimes(tr.spans)
	r.set("rskyline.rsl_ms", st["rskyline.rsl"].meanMS())
	r.set("rskyline.membership_us", st["rskyline.membership"].meanMS()*1e3)
	r.set("rskyline.prune_ratio", 1-float64(verified)/float64(len(w.queries)*len(snap.Items)))
	var builds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		repro.NewDBWithOptions(2, snap.Items, repro.DBOptions{Parallelism: -1, CacheSize: serveCache})
		builds = append(builds, ms(time.Since(start)))
	}
	r.set("rtree.bulk_load_ms", median(builds))
}

// walAppend times appends to a log of the benchmark's own with fsync off,
// isolating the WAL's encode-and-write cost from the fsync the server's
// histogram measures.
func (w *serveRun) walAppend() error {
	root, err := w.r.buildDir("tmp")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "wal-append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, SegmentBytes: 4 << 20})
	if err != nil {
		return err
	}
	const n = 500
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := l.Append(wal.OpInsert, w.items[i]); err != nil {
			return errors.Join(err, l.Close())
		}
	}
	w.r.set("wal.append_us", float64(time.Since(start))/n/1e3)
	return l.Close()
}

// snapCounts are a snapshot's cache accounting and R-tree access counters.
type snapCounts struct {
	cache     repro.CacheStats
	accesses  int
	leafScans int
}

func countsOf(sn *server.Snapshot) snapCounts {
	t := sn.DB.Engine().DB.Tree()
	return snapCounts{sn.DB.CacheStats(), t.Accesses(), t.LeafScans()}
}

func (a snapCounts) sub(b snapCounts) snapCounts {
	return snapCounts{
		cache:     repro.CacheStats{DSL: subCache(a.cache.DSL, b.cache.DSL), AntiDDR: subCache(a.cache.AntiDDR, b.cache.AntiDDR)},
		accesses:  a.accesses - b.accesses,
		leafScans: a.leafScans - b.leafScans,
	}
}

func subCache(a, b repro.CacheStatsDetail) repro.CacheStatsDetail {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Stale -= b.Stale
	a.Evictions -= b.Evictions
	return a
}

// registry is a decoded /metrics.json.
type registry map[string]json.RawMessage

func (w *serveRun) metricsJSON() (registry, error) {
	resp, err := w.admin.Get(w.live.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m registry
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return m, nil
}

func (m registry) counter(name string) float64 {
	var v float64
	_ = json.Unmarshal(m[name], &v) // absent until first use: zero
	return v
}

func (m registry) labeled(name string) map[string]float64 {
	v := map[string]float64{}
	_ = json.Unmarshal(m[name], &v) // absent until first use: empty
	return v
}

func (m registry) histogram(name string) (count, total float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	_ = json.Unmarshal(m[name], &h) // absent until first use: zero
	return h.Count, h.Sum
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// Package chaostest is the chaos/soak harness for the overload-safe query
// service. It boots a real server on a loopback listener, drives a mixed
// workload (why-not queries, reverse-skyline queries, client-side aborts,
// concurrent dataset reloads) while a deterministic fault injector panics and
// stalls inside the query algorithms, and checks the service-level
// invariants the server exists to uphold:
//
//   - every request gets exactly one terminal response (no lost requests),
//   - injected query-algorithm panics never surface as HTTP 500s — the
//     degradation ladder absorbs them into best-effort answers,
//   - every shed (429) carries an honest Retry-After header,
//   - the exact-rung circuit breaker trips under the fault window and
//     re-closes after it ends, with the service back to exact answers.
//
// The same harness backs the short `go test` chaos check and the long-running
// cmd/chaos soak binary; only the durations differ.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
	"repro/internal/obs/flight"
	"repro/internal/server"
)

// Options sizes one chaos run. The zero value is a ~2s smoke suitable for a
// unit test; cmd/chaos scales the phases up for soaking.
type Options struct {
	// FaultFor is how long the fault window stays open (panics + stalls
	// injected into the query algorithms). Default 1s.
	FaultFor time.Duration
	// CoolFor is the recovery phase after the window closes, during which the
	// breaker must re-close. Default 1s.
	CoolFor time.Duration
	// Clients is the number of concurrent workload goroutines. Default 8.
	Clients int
	// Reloaders is the number of concurrent dataset-reload goroutines
	// hot-swapping snapshots throughout the run. Default 2.
	Reloaders int
	// CancelEvery aborts every n-th request client-side with a tiny deadline,
	// exercising mid-flight disconnects. Default 7; negative disables.
	CancelEvery int
	// DatasetN is the synthetic dataset size. Default 300.
	DatasetN int
	// Seed drives the workload mix. Default 1.
	Seed int64
	// SlowlogPath, when set, writes the server's slow-query log there so a
	// failing run leaves its sampled flight records behind as an artifact.
	SlowlogPath string
}

func (o Options) withDefaults() Options {
	if o.FaultFor <= 0 {
		o.FaultFor = time.Second
	}
	if o.CoolFor <= 0 {
		o.CoolFor = time.Second
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Reloaders <= 0 {
		o.Reloaders = 2
	}
	if o.CancelEvery == 0 {
		o.CancelEvery = 7
	}
	if o.DatasetN <= 0 {
		o.DatasetN = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Summary is the schema-versioned outcome of one chaos run; cmd/chaos appends
// it to BENCH_chaos.json.
type Summary struct {
	SchemaVersion int    `json:"schema_version"`
	Harness       string `json:"harness"`

	Requests   int64            `json:"requests"`
	ByStatus   map[string]int64 `json:"by_status"`
	Cancels    int64            `json:"client_cancels"`
	Lost       int64            `json:"lost"` // transport errors that were not client-initiated aborts
	Reloads    int64            `json:"reloads_ok"`
	ReloadBusy int64            `json:"reloads_busy"` // 409: a build was already running

	Sheds              int64             `json:"sheds"`
	RetryAfterMissing  int64             `json:"retry_after_missing"`
	ServerPanics       int64             `json:"server_panics"`       // recoverMiddleware counter: must stay 0
	InjectedExactHits  int64             `json:"injected_exact_hits"` // how often the fault actually fired
	DegradedAnswers    int64             `json:"degraded_answers"`
	BreakerTrips       int64             `json:"breaker_trips"`
	BreakerRecloses    int64             `json:"breaker_recloses"`
	FinalBreakerStates map[string]string `json:"final_breaker_states"`

	// Flight-recorder accounting: every admitted request must leave exactly
	// one terminal record, and every bad or degraded record must have kept
	// its trace (the tail sampler's contract).
	FlightStarted      int64 `json:"flight_started"`
	FlightFinished     int64 `json:"flight_finished"`
	FlightInFlightEnd  int64 `json:"flight_in_flight_end"`
	FlightUnsampledBad int64 `json:"flight_unsampled_bad"`

	P50MS float64 `json:"latency_p50_ms"`
	P99MS float64 `json:"latency_p99_ms"`

	FaultForMS int64 `json:"fault_for_ms"`
	CoolForMS  int64 `json:"cool_for_ms"`
	Clients    int   `json:"clients"`
}

// Violations returns every broken invariant as a human-readable list; an
// empty slice means the run was clean.
func (s *Summary) Violations() []string {
	var v []string
	if s.Lost != 0 {
		v = append(v, fmt.Sprintf("%d requests got no terminal response", s.Lost))
	}
	if n := s.ByStatus["500"]; n != 0 {
		v = append(v, fmt.Sprintf("%d injected faults surfaced as HTTP 500", n))
	}
	if s.ServerPanics != 0 {
		v = append(v, fmt.Sprintf("%d panics reached the server's recover middleware", s.ServerPanics))
	}
	if s.RetryAfterMissing != 0 {
		v = append(v, fmt.Sprintf("%d shed responses lacked Retry-After", s.RetryAfterMissing))
	}
	if s.BreakerTrips == 0 {
		v = append(v, "the fault window never tripped the exact breaker")
	}
	if s.BreakerRecloses == 0 || s.FinalBreakerStates["exact"] != "closed" {
		v = append(v, fmt.Sprintf("exact breaker did not re-close after the fault window (state %q, %d re-closes)",
			s.FinalBreakerStates["exact"], s.BreakerRecloses))
	}
	if s.FlightStarted != s.FlightFinished || s.FlightInFlightEnd != 0 {
		v = append(v, fmt.Sprintf("flight ledger leaked records: %d started, %d finished, %d still in flight",
			s.FlightStarted, s.FlightFinished, s.FlightInFlightEnd))
	}
	if s.FlightUnsampledBad != 0 {
		v = append(v, fmt.Sprintf("%d bad/degraded flight records lost their trace (tail sampler must keep them)",
			s.FlightUnsampledBad))
	}
	return v
}

// Run executes one chaos run and reports the summary. The error is reserved
// for harness failures (listen, boot); invariant breaks are in the summary.
func Run(ctx context.Context, opts Options) (*Summary, error) {
	opts = opts.withDefaults()

	// Fault plan: the exact MWQ rung panics at the safe-region checkpoint —
	// a site only the exact algorithm visits, so the ladder's cheaper rungs
	// stay healthy and "no 5xx" is a real invariant, not luck. The customer
	// checkpoint gets a small stall to build queue pressure. The server
	// answers RSL(q) with BBRS, so it fires once per global-skyline member
	// the reverse skyline verifies, not once per customer.
	inj := faultinject.New(
		faultinject.Rule{Site: cancel.SiteSafeRegion, Panic: "chaos: injected exact-rung bug"},
		faultinject.Rule{Site: cancel.SiteCustomer, Delay: 50 * time.Microsecond},
	)
	window := faultinject.NewSwitch(inj)

	srv, err := server.New(ctx, server.Config{
		Dataset: server.DatasetSpec{
			Generate: &server.GenerateSpec{Kind: "UN", N: opts.DatasetN, Dims: 2, Seed: opts.Seed},
		},
		Admission: server.AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2},
		Breaker: server.BreakerConfig{
			ConsecutiveFailures: 3,
			OpenFor:             200 * time.Millisecond,
			HalfOpenSuccesses:   2,
		},
		RungTimeout:    time.Second,
		RequestTimeout: 5 * time.Second,
		Hook:           window,
		SlowlogPath:    opts.SlowlogPath,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: boot server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The workload needs customer IDs; generation is deterministic, so the
	// harness knows them without asking the server.
	items, err := repro.GenerateDataset("UN", opts.DatasetN, 2, opts.Seed)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}

	var (
		c       counters
		latMu   sync.Mutex
		latency []time.Duration
	)
	runCtx, stop := context.WithCancel(ctx)
	defer stop()

	// The run's clients share one transport, so the connections they leave
	// can be closed before Shutdown: a dial that completes after its request
	// was cancelled parks a connection the server still counts as new, and
	// Shutdown waits until such a connection is 5 s old.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(worker)*7919))
			client := &http.Client{Transport: transport}
			for n := 0; runCtx.Err() == nil; n++ {
				d := fireOne(runCtx, client, base, rng, ids, opts, n, &c)
				if d >= 0 {
					latMu.Lock()
					latency = append(latency, d)
					latMu.Unlock()
				}
			}
		}(i)
	}
	for i := 0; i < opts.Reloaders; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			client := &http.Client{Transport: transport}
			for seed := int64(worker + 100); runCtx.Err() == nil; seed++ {
				reloadOnce(runCtx, client, base, opts.DatasetN, seed, &c)
				select {
				case <-runCtx.Done():
				case <-time.After(20 * time.Millisecond):
				}
			}
		}(i)
	}

	// Phase 1: fault window open.
	window.Set(true)
	sleepCtx(runCtx, opts.FaultFor)
	// Phase 2: faults stop; the breaker must probe its way back.
	window.Set(false)
	sleepCtx(runCtx, opts.CoolFor)
	stop()
	wg.Wait()
	transport.CloseIdleConnections()

	// Every client saw a terminal response, but a handler's deferred record
	// finish can land just after the response bytes — give the ledger a
	// moment to quiesce before reading its accounting.
	var flightTotals flight.Totals
	var unsampledBad int64
	deadline := time.Now().Add(2 * time.Second)
	for {
		flightTotals = srv.FlightRecorder().Totals()
		if flightTotals.Started == flightTotals.Finished || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, rec := range srv.FlightRecorder().Recent(0) {
		bad := rec.Outcome != flight.OutcomeOK && rec.Outcome != flight.OutcomeCanceled
		if (bad || rec.Degraded) && !rec.Sampled {
			unsampledBad++
		}
	}

	shutCtx, cancelShut := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		return nil, fmt.Errorf("chaos: shutdown: %w", err)
	}
	if err := <-serveDone; err != nil {
		return nil, fmt.Errorf("chaos: serve: %w", err)
	}

	sum := c.summary(opts)
	sum.InjectedExactHits = int64(inj.Visits(cancel.SiteSafeRegion))
	for rung, st := range srv.Breakers().Status() {
		sum.FinalBreakerStates[rung] = st.State
		sum.BreakerTrips += int64(st.Trips)
		sum.BreakerRecloses += int64(st.Recloses)
	}
	sum.ServerPanics = int64(srv.ServerPanics())
	sum.FlightStarted = int64(flightTotals.Started)
	sum.FlightFinished = int64(flightTotals.Finished)
	sum.FlightInFlightEnd = int64(flightTotals.InFlight)
	sum.FlightUnsampledBad = unsampledBad
	sum.P50MS, sum.P99MS = percentiles(latency)
	return sum, nil
}

// counters is the thread-safe tally shared by all workload goroutines.
type counters struct {
	mu                sync.Mutex
	byStatus          map[string]int64
	requests          atomic.Int64
	cancels           atomic.Int64
	lost              atomic.Int64
	reloads           atomic.Int64
	reloadBusy        atomic.Int64
	sheds             atomic.Int64
	retryAfterMissing atomic.Int64
	degraded          atomic.Int64
}

func (c *counters) status(code int) {
	c.mu.Lock()
	if c.byStatus == nil {
		c.byStatus = make(map[string]int64)
	}
	c.byStatus[fmt.Sprintf("%d", code)]++
	c.mu.Unlock()
}

func (c *counters) summary(opts Options) *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Summary{
		SchemaVersion:      1,
		Harness:            "chaostest",
		Requests:           c.requests.Load(),
		ByStatus:           make(map[string]int64, len(c.byStatus)),
		Cancels:            c.cancels.Load(),
		Lost:               c.lost.Load(),
		Reloads:            c.reloads.Load(),
		ReloadBusy:         c.reloadBusy.Load(),
		Sheds:              c.sheds.Load(),
		RetryAfterMissing:  c.retryAfterMissing.Load(),
		DegradedAnswers:    c.degraded.Load(),
		FinalBreakerStates: make(map[string]string),
		FaultForMS:         opts.FaultFor.Milliseconds(),
		CoolForMS:          opts.CoolFor.Milliseconds(),
		Clients:            opts.Clients,
	}
	for k, v := range c.byStatus {
		s.ByStatus[k] = v
	}
	return s
}

// fireOne issues a single workload request and returns its latency, or a
// negative duration when the request did not produce a usable sample
// (client-side abort or run shutdown).
func fireOne(ctx context.Context, client *http.Client, base string, rng *rand.Rand,
	ids []int, opts Options, n int, c *counters) time.Duration {
	reqCtx := ctx
	cancelled := false
	if opts.CancelEvery > 0 && n%opts.CancelEvery == opts.CancelEvery-1 {
		var cancelReq context.CancelFunc
		reqCtx, cancelReq = context.WithTimeout(ctx, time.Duration(rng.Intn(3)+1)*time.Millisecond)
		defer cancelReq()
		cancelled = true
	}

	var path, body string
	q := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	if rng.Intn(3) == 0 {
		path = "/v1/rskyline"
		body = fmt.Sprintf(`{"q":[%g,%g]}`, q[0], q[1])
	} else {
		path = "/v1/whynot"
		body = fmt.Sprintf(`{"q":[%g,%g],"customer_id":%d}`, q[0], q[1], ids[rng.Intn(len(ids))])
	}

	c.requests.Add(1)
	began := time.Now()
	req, err := http.NewRequestWithContext(reqCtx, "POST", base+path, strings.NewReader(body))
	if err != nil {
		c.lost.Add(1)
		return -1
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		// A client-initiated abort (or run shutdown) is a terminal outcome the
		// client chose; anything else is a lost request.
		if cancelled || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			c.cancels.Add(1)
		} else {
			c.lost.Add(1)
		}
		return -1
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.status(resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		c.sheds.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			c.retryAfterMissing.Add(1)
		}
	case resp.StatusCode == http.StatusOK && strings.Contains(string(buf), `"degraded":true`):
		c.degraded.Add(1)
	}
	return time.Since(began)
}

func reloadOnce(ctx context.Context, client *http.Client, base string, n int, seed int64, c *counters) {
	body := fmt.Sprintf(`{"generate":{"kind":"UN","n":%d,"dims":2,"seed":%d}}`, n, seed)
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/admin/reload", strings.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		c.reloads.Add(1)
	case http.StatusConflict:
		c.reloadBusy.Add(1)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func percentiles(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i]) / 1e6
	}
	return at(0.50), at(0.99)
}

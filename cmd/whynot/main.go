// Command whynot answers reverse-skyline why-not questions interactively
// from the command line.
//
// Usage:
//
//	# who is interested in a car at $8500 / 55000 mi?
//	whynot -data cardb.csv -q 8500,55000 rsl
//
//	# why is customer 17 not interested, and what would fix it?
//	whynot -data cardb.csv -q 8500,55000 -c 17 explain
//	whynot -data cardb.csv -q 8500,55000 -c 17 mwp
//	whynot -data cardb.csv -q 8500,55000 -c 17 mqp
//	whynot -data cardb.csv -q 8500,55000 -c 17 mwq
//	whynot -data cardb.csv -q 8500,55000 saferegion
//
//	# precompute the approximate store once, then answer questions fast:
//	whynot -data cardb.csv -q 8500,55000 -k 10 -save-store store.bin buildstore
//	whynot -data cardb.csv -q 8500,55000 -c 17 -store store.bin approxmwq
//
//	# bound any answer's latency; degrade to a cheaper algorithm if needed:
//	whynot -data cardb.csv -q 8500,55000 -c 17 -timeout 100ms -degrade -store store.bin mwq
//
//	# score every why-not customer in a file of IDs against one query:
//	whynot -data cardb.csv -q 8500,55000 -c 17 -c2 42 batch
//
//	# durable mutations: log to a WAL directory, recover on the next run:
//	whynot -data cardb.csv -wal-dir wal -q 9000,40000 -c 9001 insert
//	whynot -data cardb.csv -wal-dir wal -c 9001 delete
//	whynot -data cardb.csv -wal-dir wal -q 8500,55000 -checkpoint rsl
//
// Without -data, the paper's 8-point running example (Fig. 1a, price in K$,
// mileage in Kmi) is used, so `whynot -q 8.5,55 -c 1 mwp` reproduces §IV.
//
// With -timeout, every query runs under that deadline and fails with a
// deadline error instead of hanging on adversarial inputs. Adding -degrade
// lets mwq fall back from the exact answer to the approximate store (when
// -store is given) and finally to MWP, reporting which rung answered.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Exit codes (documented in -h): 0 success, 1 internal failure, 2 usage
// error, 3 deadline exceeded or degraded answer — scripts distinguish "the
// answer is best-effort or late" from "the tool broke".
func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	var uerr *usageError
	switch {
	case errors.As(err, &uerr):
		fmt.Fprintln(os.Stderr, "error:", uerr.msg)
		usage(os.Stderr)
		os.Exit(2)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, errDegradedAnswer):
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(3)
	default:
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// usageError marks failures of argument validation (exit code 2, with help
// text) as opposed to runtime failures (exit code 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// errDegradedAnswer marks a run whose answer was served, but by a cheaper
// rung than exact (exit code 3): the output is valid best-effort, and
// callers who need optimality can tell without parsing stdout.
var errDegradedAnswer = errors.New("degraded answer")

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// needsCustomer lists the commands that cannot run without -c.
var needsCustomer = map[string]bool{
	"explain": true, "mwp": true, "mqp": true, "mwq": true, "approxmwq": true,
	"insert": true, "delete": true,
}

var knownCommands = map[string]bool{
	"rsl": true, "saferegion": true, "explain": true, "mwp": true, "mqp": true,
	"mwq": true, "buildstore": true, "approxmwq": true, "batch": true,
	"insert": true, "delete": true,
}

// needsWAL lists the commands that mutate and therefore require -wal-dir.
var needsWAL = map[string]bool{"insert": true, "delete": true}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("whynot", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = func() { usage(os.Stderr) }
	dataPath := fs.String("data", "", "CSV dataset (id,dim0,dim1,...); empty = paper example")
	qSpec := fs.String("q", "", "query point, comma-separated coordinates (required)")
	cid := fs.Int("c", -1, "why-not customer ID (required for explain/mwp/mqp/mwq/approxmwq)")
	cid2 := fs.Int("c2", -1, "second why-not customer ID (batch)")
	k := fs.Int("k", 10, "approximate-DSL sampling constant (buildstore)")
	storePath := fs.String("store", "", "approximate store to load (approxmwq; degraded mwq)")
	saveStore := fs.String("save-store", "", "file to write the approximate store to (buildstore)")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 100ms")
	degrade := fs.Bool("degrade", false, "on deadline/fault, fall back to cheaper algorithms (mwq)")
	workers := fs.Int("workers", 1, "parallelism for per-customer loops (1 = sequential, 0 or <0 = all CPUs)")
	cacheSize := fs.Int("cache", 0, "per-customer memoisation cache entries (0 = disabled)")
	stats := fs.Bool("stats", false, "print the paper's cost counters (node accesses, dominance tests, ...) and this run's flight QueryRecord after the answer")
	traceFlag := fs.Bool("trace", false, "print the per-query span/event trace after the answer")
	explainFlag := fs.Bool("explain", false, "print the query's EXPLAIN plan tree (phases, prune ratios, per-level R-tree accesses, estimated vs actual cost) after the answer")
	slowlogPath := fs.String("slowlog", "", "append this run's flight QueryRecord as a JSON line to the given file (same schema as the server's slow-query log)")
	flightSize := fs.Int("flight-size", 16, "flight-recorder ring size for this run's records (with -stats or -slowlog)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address and wait for SIGINT/SIGTERM")
	walDir := fs.String("wal-dir", "", "durability directory: recover -data plus logged mutations, and enable insert/delete")
	fsyncPolicy := fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	checkpoint := fs.Bool("checkpoint", false, "write a durability snapshot and compact the WAL before exit (requires -wal-dir)")
	if err := fs.Parse(args); err != nil {
		return usagef("%v", err)
	}

	// All argument validation happens before the (potentially large) dataset
	// is loaded, so a typo fails in microseconds, not after a full load.
	cmd := fs.Arg(0)
	switch {
	case cmd == "":
		return usagef("missing command")
	case !knownCommands[cmd]:
		return usagef("unknown command %q", cmd)
	case *qSpec == "" && cmd != "delete":
		// delete needs only the ID: the stored position is the point.
		return usagef("missing -q")
	case needsWAL[cmd] && *walDir == "":
		return usagef("%s mutates the dataset and needs -wal-dir", cmd)
	case *checkpoint && *walDir == "":
		return usagef("-checkpoint needs -wal-dir")
	}
	var q repro.Point
	if *qSpec != "" {
		var err error
		q, err = parsePoint(*qSpec)
		if err != nil {
			return usagef("bad -q: %v", err)
		}
	}
	if needsCustomer[cmd] && *cid < 0 {
		return usagef("%s needs -c <customerID>", cmd)
	}
	if cmd == "batch" && *cid < 0 && *cid2 < 0 {
		return usagef("batch needs -c (and optionally -c2)")
	}
	if cmd == "approxmwq" && *storePath == "" {
		return usagef("approxmwq needs -store")
	}
	if *timeout < 0 {
		return usagef("-timeout must be non-negative")
	}
	if *degrade && cmd != "mwq" {
		fmt.Fprintln(os.Stderr, "note: -degrade only affects mwq; ignoring")
	}

	var store *repro.ApproxStore
	if *storePath != "" {
		f, err := os.Open(*storePath)
		if err != nil {
			return err
		}
		store, err = repro.LoadApproxStore(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	items, err := loadItems(*dataPath)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("dataset is empty")
	}
	dims := items[0].Point.Dims()
	if q != nil && dims != q.Dims() {
		return fmt.Errorf("query has %d dims, dataset has %d", q.Dims(), dims)
	}
	par := *workers
	if par <= 0 {
		par = -1 // repro convention: negative = GOMAXPROCS
	}
	observe := *stats || *traceFlag || *metricsAddr != ""
	dbOpts := repro.DBOptions{
		Parallelism:   par,
		CacheSize:     *cacheSize,
		Observability: observe,
	}
	var db *repro.DB
	if *walDir != "" {
		policy, err := repro.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		dbOpts.Durability = &repro.DurabilityOptions{Dir: *walDir, Policy: policy}
		var rec repro.WALRecovery
		db, rec, err = repro.OpenDurable(dims, items, dbOpts)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := db.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "warning: closing WAL:", cerr)
			}
		}()
		// Queries must see the recovered state, not the base CSV.
		items = db.DurableItems()
		if len(items) == 0 {
			return fmt.Errorf("recovered dataset is empty")
		}
		if rec.HaveSnapshot || len(rec.Tail) > 0 {
			fmt.Fprintf(out, "recovered %d items (snapshot seq %d, %d replayed records) from %s\n",
				len(items), rec.SnapshotSeq, len(rec.Tail), *walDir)
		}
	} else {
		db = repro.NewDBWithOptions(dims, items, dbOpts)
	}

	// With -stats or -slowlog the run keeps a flight QueryRecord — the same
	// schema the server's ledger and slow log use, so one CLI reproduction of
	// a production query is directly diffable against the server's record.
	// HeadSampleEvery 1 means the single record always retains its trace.
	var act *flight.Active
	if *stats || *slowlogPath != "" {
		var sl *flight.SlowLog
		if *slowlogPath != "" {
			sl, err = flight.OpenSlowLog(*slowlogPath, 0)
			if err != nil {
				return err
			}
		}
		led := flight.New(flight.Config{
			Size:            *flightSize,
			HeadSampleEvery: 1,
			Slowlog:         sl,
			Epoch:           time.Now().Add(-time.Duration(obs.Now())),
		})
		act = led.Begin(cmd, "cli", fmt.Sprintf("cmd=%s q=%s c=%d", cmd, *qSpec, *cid), par)
		defer func() {
			// A degraded answer is still a served answer: the record says
			// outcome ok with the degraded flag set (and keeps the exit-3
			// message), matching how the server classifies fallback rungs.
			outcome := flight.OutcomeOK
			msg := ""
			if retErr != nil {
				msg = retErr.Error()
				if !errors.Is(retErr, errDegradedAnswer) {
					outcome = flight.ClassifyErr(retErr)
				}
			}
			rec, done := act.Finish(outcome, msg)
			if done && *stats {
				if b, jerr := json.Marshal(rec); jerr == nil {
					fmt.Fprintln(out, "--- record ---")
					fmt.Fprintln(out, string(b))
				}
			}
			if cerr := sl.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
	}

	// baseCtx carries the per-query trace and the record's counters (no
	// deadline: the mwq ladder budgets each rung itself); ctx adds the
	// -timeout bound for every non-ladder query.
	baseCtx := context.Background()
	var tr *repro.QueryTrace
	if act != nil {
		baseCtx = act.Context(baseCtx)
		tr = act.Trace()
	} else if observe {
		baseCtx, tr = db.StartTrace(baseCtx, cmd)
	}
	// -explain wraps the base context with a plan builder, so both the
	// deadline-bound queries and the mwq ladder (which runs on baseCtx)
	// record plan nodes. The rung that answered is filled in by mwq below.
	var finishExplain func(string) *repro.ExplainPlan
	explainRung := ""
	if *explainFlag {
		baseCtx, finishExplain = db.StartExplain(baseCtx, cmd)
	}
	ctx := baseCtx
	if *timeout > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(baseCtx, *timeout)
		defer cancelCtx()
	}

	// The stats delta is re-marked immediately before each command's primary
	// algorithm call, so preparatory queries (membership probes, RSL
	// computation for commands whose subject is a later step) do not blur the
	// printed counters.
	sp := &statsPrinter{db: db, enabled: *stats}
	sp.mark()

	// deferred carries a non-fatal outcome (degraded answer → exit 3) that
	// must not short-circuit the stats/trace epilogue below.
	var deferred error
	switch cmd {
	case "insert":
		seq, err := db.InsertDurable(repro.Item{ID: *cid, Point: q})
		if err != nil {
			return err
		}
		act.SetWALSeq(seq)
		fmt.Fprintf(out, "inserted customer %d at %v (wal seq %d)\n", *cid, q, seq)
	case "delete":
		stored, ok := find(items, *cid)
		if !ok {
			return fmt.Errorf("customer %d not found", *cid)
		}
		seq, err := db.DeleteDurable(stored)
		if err != nil {
			return err
		}
		act.SetWALSeq(seq)
		fmt.Fprintf(out, "deleted customer %d at %v (wal seq %d)\n", stored.ID, stored.Point, seq)
	case "rsl":
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "RSL(%v): %d customers\n", q, len(rsl))
		for _, c := range rsl {
			fmt.Fprintf(out, "  customer %d at %v\n", c.ID, c.Point)
		}
	case "saferegion":
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		sp.mark()
		sr, err := db.SafeRegionContext(ctx, q, rsl)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Safe region of %v (keeps all %d current customers):\n", q, len(rsl))
		for _, r := range sr {
			fmt.Fprintf(out, "  %v\n", r)
		}
	case "buildstore":
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		sp.mark()
		t0 := time.Now()
		built, err := db.BuildApproxStoreContext(ctx, rsl, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "precomputed approximate skylines for %d reverse-skyline customers in %s\n",
			len(rsl), time.Since(t0).Round(time.Millisecond))
		if *saveStore != "" {
			f, err := os.Create(*saveStore)
			if err != nil {
				return err
			}
			if err := built.Save(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(out, "store written to", *saveStore)
		}
	case "approxmwq":
		ct, ok := find(items, *cid)
		if !ok {
			return fmt.Errorf("customer %d not found", *cid)
		}
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		sp.mark()
		t0 := time.Now()
		res, err := db.MWQApproxContext(ctx, ct, q, rsl, store, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Approx-MWQ in %s: case C%d, q* = %v", time.Since(t0).Round(time.Microsecond), res.Case, res.QStar)
		if res.Case == 2 {
			fmt.Fprintf(out, ", move customer to %v (cost %.6f)", res.CtStar, res.Cost)
		}
		fmt.Fprintln(out)
	case "batch":
		var cts []repro.Item
		for _, id := range []int{*cid, *cid2} {
			if id < 0 {
				continue
			}
			ct, ok := find(items, id)
			if !ok {
				return fmt.Errorf("customer %d not found", id)
			}
			cts = append(cts, ct)
		}
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		sp.mark()
		results, err := db.MWQBatchContext(ctx, cts, q, rsl, repro.Options{})
		if err != nil {
			return err
		}
		for i, res := range results {
			fmt.Fprintf(out, "customer %d: case C%d, q* = %v, customer move cost %.6f\n",
				cts[i].ID, res.Case, res.QStar, res.Cost)
		}
	case "mwq":
		ct, ok := find(items, *cid)
		if !ok {
			return fmt.Errorf("customer %d not found", *cid)
		}
		member, err := db.IsReverseSkylineContext(ctx, ct, q)
		if err != nil {
			return err
		}
		if member {
			fmt.Fprintf(out, "customer %d is already in RSL(%v) — nothing to fix\n", ct.ID, q)
			return nil
		}
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		cfg := engine.Config{
			Timeout: *timeout,
			Degrade: *degrade,
			Store:   store,
		}
		if observe {
			cfg.Metrics = engine.NewMetrics(db.Metrics())
		}
		runner := engine.NewRunner(db.Engine(), cfg)
		sp.mark()
		ans, err := runner.MWQ(baseCtx, ct, q, rsl)
		if err != nil {
			return err
		}
		act.SetRung(ans.Rung.String(), ans.Degraded)
		explainRung = ans.Rung.String()
		if ans.Degraded {
			fmt.Fprintf(out, "(degraded answer from the %s rung)\n", ans.Rung)
			deferred = fmt.Errorf("%w: served by the %s rung", errDegradedAnswer, ans.Rung)
		}
		res := ans.Result
		switch res.Case {
		case 1:
			fmt.Fprintf(out, "the safe region overlaps the customer's region: move q to %v at zero customer-movement cost\n", res.QStar)
			fmt.Fprintf(out, "(no existing customer among the %d in RSL(q) is lost)\n", len(rsl))
		default:
			fmt.Fprintf(out, "safe region cannot reach customer %d; move q to %v (still safe) and the customer to %v (cost %.6f)\n",
				ct.ID, res.QStar, res.CtStar, res.Cost)
		}
	case "explain", "mwp", "mqp":
		ct, ok := find(items, *cid)
		if !ok {
			return fmt.Errorf("customer %d not found", *cid)
		}
		member, err := db.IsReverseSkylineContext(ctx, ct, q)
		if err != nil {
			return err
		}
		if member {
			fmt.Fprintf(out, "customer %d is already in RSL(%v) — nothing to fix\n", ct.ID, q)
			return nil
		}
		if err := runWhyNot(ctx, out, db, items, ct, q, cmd, sp); err != nil {
			return err
		}
	}
	if *checkpoint {
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Fprintln(out, "checkpoint written; superseded wal segments compacted")
	}
	sp.print(out)
	if finishExplain != nil {
		fmt.Fprintln(out, "--- plan ---")
		fmt.Fprint(out, finishExplain(explainRung).String())
	}
	if *traceFlag && tr != nil {
		fmt.Fprintln(out, "--- trace ---")
		tr.Format(out)
	}
	if *metricsAddr != "" {
		if err := serveMetrics(out, *metricsAddr, db.Metrics()); err != nil {
			return err
		}
	}
	return deferred
}

// statsPrinter prints the delta of the paper's cost counters between the
// last mark() and the end of the command.
type statsPrinter struct {
	db      *repro.DB
	enabled bool
	before  repro.Cost
}

func (s *statsPrinter) mark() {
	if s.enabled {
		s.before = s.db.Cost()
	}
}

func (s *statsPrinter) print(out io.Writer) {
	if !s.enabled {
		return
	}
	d := s.db.Cost().Sub(s.before)
	fmt.Fprintln(out, "--- stats ---")
	fmt.Fprintf(out, "node accesses: %d\n", d.NodeAccesses)
	fmt.Fprintf(out, "leaf scans: %d\n", d.LeafScans)
	fmt.Fprintf(out, "dominance tests: %d\n", d.DominanceTests)
	fmt.Fprintf(out, "dsl computations: %d\n", d.DSLComputations)
	fmt.Fprintf(out, "window queries: %d\n", d.WindowQueries)
	fmt.Fprintf(out, "safe-region vertices: %d\n", d.SafeRegionVertices)
	fmt.Fprintf(out, "candidate evaluations: %d\n", d.CandidateEvaluations)
	fmt.Fprintf(out, "cache stale-on-arrival: %d\n", d.CacheStale)
	fmt.Fprintf(out, "degradation events: %d\n", d.Degradations)
}

// serveMetrics exposes the observability endpoints until SIGINT/SIGTERM.
func serveMetrics(out io.Writer, addr string, reg *obs.Registry) error {
	srv := &http.Server{Addr: addr, Handler: obs.DebugMux(reg)}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "serving metrics on http://%s/metrics (SIGINT/SIGTERM to stop)\n", addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancelShut := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelShut()
		return srv.Shutdown(shutCtx)
	}
}

func runWhyNot(ctx context.Context, out io.Writer, db *repro.DB, items []repro.Item, ct repro.Item, q repro.Point, cmd string, sp *statsPrinter) error {
	switch cmd {
	case "explain":
		sp.mark()
		culprits, err := db.ExplainContext(ctx, ct, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "customer %d at %v is not in RSL(%v) because these products dominate q from its perspective:\n",
			ct.ID, ct.Point, q)
		for _, p := range culprits {
			fmt.Fprintf(out, "  product %d at %v\n", p.ID, p.Point)
		}
		fmt.Fprintln(out, "deleting them all would admit the customer (Lemma 1)")
	case "mwp":
		sp.mark()
		res, err := db.MWPContext(ctx, ct, q, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "move customer %d (currently %v) to one of:\n", ct.ID, ct.Point)
		for _, c := range res.Candidates {
			fmt.Fprintf(out, "  %v   (cost %.6f)\n", c.Point, c.Cost)
		}
	case "mqp":
		sp.mark()
		res, err := db.MQPContext(ctx, ct, q, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "move the product q (currently %v) to one of:\n", q)
		rsl, err := db.ReverseSkylineContext(ctx, items, q)
		if err != nil {
			return err
		}
		sr, err := db.SafeRegionContext(ctx, q, rsl)
		if err != nil {
			return err
		}
		for _, c := range res.Candidates {
			total, err := db.MQPTotalCostContext(ctx, q, c.Point, rsl, sr, repro.Options{})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %v   (move cost %.6f, cost incl. lost customers %.6f)\n",
				c.Point, c.Cost, total)
		}
	}
	return nil
}

func loadItems(path string) ([]repro.Item, error) {
	if path == "" {
		coords := [][2]float64{
			{5, 30}, {7.5, 42}, {2.5, 70}, {7.5, 90},
			{24, 20}, {20, 50}, {26, 70}, {16, 80},
		}
		items := make([]repro.Item, len(coords))
		for i, c := range coords {
			items[i] = repro.Item{ID: i + 1, Point: repro.NewPoint(c[0], c[1])}
		}
		return items, nil
	}
	d, err := dataset.LoadCSV("data", path)
	if err != nil {
		return nil, err
	}
	return d.Items, nil
}

func parsePoint(s string) (repro.Point, error) {
	parts := strings.Split(s, ",")
	coords := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %v", p, err)
		}
		coords[i] = v
	}
	return repro.NewPoint(coords...), nil
}

func find(items []repro.Item, id int) (repro.Item, bool) {
	for _, it := range items {
		if it.ID == id {
			return it, true
		}
	}
	return repro.Item{}, false
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: whynot [-data file.csv] -q x,y[,...] [-c customerID] [-timeout d] [-degrade] <command>

commands:
  rsl         list the reverse skyline of q (who is interested)
  saferegion  print the safe region of q (where q can move losing nobody)
  explain     why is customer -c not interested (culprit products)
  mwp         minimal customer move that makes q interesting (Algorithm 1)
  mqp         minimal product move that wins the customer (Algorithm 2)
  mwq         safe-region-aware move of both (Algorithm 4)
  buildstore  precompute the approximate store (§VI.B.1), optionally -save-store
  approxmwq   answer with the approximate store (-store file)
  batch       answer for several customers (-c, -c2) sharing one safe region
  insert      durably add customer -c at point -q (requires -wal-dir)
  delete      durably remove customer -c (requires -wal-dir; -q not needed)

durability flags:
  -wal-dir d    recover -data plus all mutations logged in d; insert/delete
                commit to the WAL there before touching the index
  -fsync p      WAL fsync policy: always (default), interval, never
  -checkpoint   write a snapshot and compact the WAL before exit

robustness flags:
  -timeout d  bound each query by a deadline (e.g. -timeout 100ms)
  -degrade    let mwq fall back: exact -> approximate (-store) -> MWP

performance flags:
  -workers n  fan per-customer loops out over n goroutines (1 = sequential, 0 = all CPUs)
  -cache n    memoise up to n per-customer dynamic skylines / anti-DDRs (0 = off)

observability flags:
  -stats            print the paper's cost counters (node accesses, dominance tests, ...)
                    and this run's flight QueryRecord (one JSON line, the same
                    schema as the server ledger — diffable against it)
  -trace            print the per-query span/event trace
  -explain          print the EXPLAIN plan tree: phases with candidate
                    in/out counts, pruning rules and ratios, per-level
                    R-tree accesses, estimated vs actual per-phase cost
  -slowlog f        append the run's QueryRecord to f as a JSON line (same
                    format as the server's -slowlog slow-query log)
  -flight-size n    flight-recorder ring size for this run's records
  -metrics-addr a   serve /metrics (Prometheus), /metrics.json, /debug/vars and
                    /debug/pprof on address a, then wait for SIGINT/SIGTERM

exit codes:
  0  success (exact answer)
  1  internal failure (bad dataset, I/O error, query failure)
  2  usage error (this help is printed)
  3  deadline exceeded, or the answer was served degraded by a cheaper
     rung than exact (the output is valid best-effort)`)
}

// Command benchmark is the repository's layered why-not benchmark. It runs
// one workload for a fixed time, checks every answer, and prints one JSON
// result line last on standard output:
//
//	bash benchmark/run.sh --workload fig15-cardb50k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// separate traced run wraps spans around the calls into each layer and the
// result holds the per-layer metrics. README.md in this directory names every
// workload and metric and says why each exists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// The fixed seeds of the datasets and of the query-workload selection. They
// are part of each workload's definition, not of a run: --seed orders and
// draws from the selected workload, so per-case cost counters stay
// comparable across runs.
const (
	dataSeed  = 2013
	querySeed = 2014
)

// A run builds the system under test at least setupReps times and until
// setupFor has passed; setup_s is the median build time.
const (
	setupReps = 5
	setupFor  = 2 * time.Second
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports with --trace 0: what a
// user of the library or the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"whynot_fast_ms", "ms"},
	{"whynot_tail_ms", "ms"},
	{"rskyline_fast_ms", "ms"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"rtree.node_accesses", "count"},
	{"rtree.leaf_scans", "count"},
	{"rtree.bulk_load_ms", "ms"},
	{"skyline.dsl_ms", "ms"},
	{"skyline.dsl_computations", "count"},
	{"skyline.dominance_tests", "count"},
	{"rskyline.rsl_ms", "ms"},
	{"rskyline.membership_us", "us"},
	{"rskyline.window_queries", "count"},
	{"rskyline.prune_ratio", "ratio"},
	{"region.antiddr_ms", "ms"},
	{"region.intersect_ms", "ms"},
	{"region.rects_per_antiddr", "count"},
	{"region.rects_peak", "count"},
	{"whynot.saferegion_ms", "ms"},
	{"whynot.saferegion_share", "ratio"},
	{"whynot.alg4_ms", "ms"},
	{"whynot.saferegion_vertices", "count"},
	{"whynot.candidate_evaluations", "count"},
	{"whynot.approx_saferegion_us", "us"},
	{"whynot.mwp_ms", "ms"},
	{"whynot.mqp_ms", "ms"},
	{"whynot.approx_mwq_ms", "ms"},
	{"exec.dsl_cache_hit_rate", "ratio"},
	{"exec.antiddr_cache_hit_rate", "ratio"},
	{"exec.cache_stale_on_arrival", "count"},
	{"exec.cache_evictions", "count"},
	{"engine.rung_attempts.exact", "count"},
	{"engine.rung_attempts.approx", "count"},
	{"engine.rung_attempts.mwp", "count"},
	{"engine.degradations", "count"},
	{"server.queue_wait_tail_ms", "ms"},
	{"server.sheds", "count"},
	{"server.http_overhead_ms", "ms"},
	{"server.capacity_qps", "1/s"},
	{"server.mutation_p50_ms", "ms"},
	{"server.mutation_tail_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_mutation", "bytes"},
	{"loadgen.lag_tail_ms", "ms"},
	{"obs.trace_overhead_ms", "ms"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fig15-cardb50k":      runFig15,
	"saferegion-un-d3":    runD3,
	"serve-read-cardb50k": runServeRead,
}

// run is the state of one benchmark invocation.
type run struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted int
	failed    int
	wrong     []string // answers that failed a check; any makes the run incorrect
	values    map[string]float64
	stamp     map[string]any
}

// fail records a wrong answer or an invalid run.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 20 {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", msg)
	}
	r.wrong = append(r.wrong, msg)
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// buildDir holds everything a run leaves behind, inside the checkout.
func (r *run) buildDir(sub string) (string, error) {
	dir := filepath.Join(r.root, ".bench_build", sub)
	return dir, os.MkdirAll(dir, 0o755)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (where the benchmark keeps .bench_build)")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer variant")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &run{
		root: *root, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		values: map[string]float64{},
	}
	r.stamp = map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    *seconds,
		"trace":      r.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"revision":   gitRevision(r.root),
	}
	digest, err := sourceDigest(r.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r.stamp["source_digest"] = digest
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r.stamp["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	r.stamp["checks_failed"] = len(r.wrong)
	printJSON(map[string]any{"stamp": r.stamp})
	printJSON(res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the final line: the end-to-end metrics untraced, the
// per-layer metrics traced. A missing end-to-end value is a benchmark bug;
// a per-layer value a workload never sets is a layer it does not exercise.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.wrong) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("workload %s measured no value for %s", r.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings reach here
	}
	fmt.Println(string(b))
}

// gitRevision names the commit under test when the checkout is a git work
// tree; the source digest identifies the code either way.
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout, so
// runs of the same code share a digest whether or not git is present.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// timeSetup builds the system repeatedly and records the median build time
// as setup_s. Every build but the last is released, untimed; the last one
// is what the run measures. Each build starts after a forced collection, so
// none pays for the garbage of the one before.
func (r *run) timeSetup(build func() (release func() error, err error)) error {
	var secs []float64
	for begin := time.Now(); ; {
		runtime.GC()
		start := time.Now()
		release, err := build()
		if err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
		if len(secs) >= setupReps && time.Since(begin) >= setupFor {
			break
		}
		if err := release(); err != nil {
			return err
		}
	}
	r.set("setup_s", median(secs))
	r.stamp["setup_builds"] = len(secs)
	return nil
}

// liveHeap records the Go heap in use once the system is built, after a
// forced collection.
func (r *run) liveHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// opCounts is the exact work of one (operation, case) key: the paper's cost
// counters, and for a traced safe region the rectangles of its anti-DDRs
// and the largest intersection of its fold.
type opCounts struct {
	repro.Cost
	Rects     int `json:"region_rects,omitempty"`
	PeakRects int `json:"region_peak_rects,omitempty"`
}

// countBook holds the exact counts of every (operation, case) key a
// single-caller run executes. They are deterministic, so a key seen twice
// must read the same both times, in this run and in every earlier run of
// the same code.
type countBook struct {
	first map[string]opCounts
}

func newCountBook() *countBook { return &countBook{first: map[string]opCounts{}} }

func (b *countBook) observe(r *run, key string, c opCounts) {
	prev, ok := b.first[key]
	if !ok {
		b.first[key] = c
		return
	}
	if prev != c {
		r.fail("cost counters of %s changed between repetitions: %+v then %+v", key, prev, c)
	}
}

// crossCheck compares this run's counts with those recorded by earlier runs
// of the same source digest and records the union for later runs.
func (b *countBook) crossCheck(r *run) error {
	dir, err := r.buildDir("counts")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", r.workload, r.stamp["source_digest"]))
	known := map[string]opCounts{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &known); err != nil {
			return fmt.Errorf("counts record %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	added := false
	for k, c := range b.first {
		prev, ok := known[k]
		switch {
		case !ok:
			known[k] = c
			added = true
		case prev != c:
			r.fail("cost counters of %s differ from an earlier run of the same code: %+v then %+v", k, prev, c)
		}
	}
	r.stamp["counts_checked_against"] = len(known)
	if !added {
		return nil
	}
	buf, err := json.Marshal(known)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// meanCost averages one operation's per-case counts over every case, each
// case once, so the figure is as exact as the counts themselves.
func (b *countBook) meanCost(op string) (avg map[string]float64) {
	avg = map[string]float64{}
	n := 0
	for k, c := range b.first {
		if !strings.HasPrefix(k, op+"/") {
			continue
		}
		n++
		avg["node_accesses"] += float64(c.NodeAccesses)
		avg["leaf_scans"] += float64(c.LeafScans)
		avg["dominance_tests"] += float64(c.DominanceTests)
		avg["dsl_computations"] += float64(c.DSLComputations)
		avg["window_queries"] += float64(c.WindowQueries)
		avg["saferegion_vertices"] += float64(c.SafeRegionVertices)
		avg["candidate_evaluations"] += float64(c.CandidateEvaluations)
	}
	for k := range avg {
		avg[k] /= float64(n)
	}
	return avg
}

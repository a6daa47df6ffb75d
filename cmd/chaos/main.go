// Command chaos runs the chaos/soak harness of internal/server/chaostest
// against a freshly booted in-process server: a mixed query workload with
// client aborts and concurrent dataset hot-swaps while deterministic faults
// (exact-rung panics, checkpoint stalls) are injected for the first phase of
// the run, then a recovery phase during which the circuit breaker must
// re-close.
//
// The schema-versioned run summary is printed and appended to the output
// JSON (an array of runs; default BENCH_chaos.json). A run that breaks a
// service-level invariant — lost responses, injected panics surfacing as
// 500s, sheds without Retry-After, a breaker that never re-closes — exits
// non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchrec"
	"repro/internal/server/chaostest"
)

func main() {
	var (
		faultFor  = flag.Duration("fault", 15*time.Second, "length of the injected-fault window")
		coolFor   = flag.Duration("cool", 15*time.Second, "recovery phase after faults stop")
		clients   = flag.Int("clients", 8, "concurrent workload goroutines")
		reloaders = flag.Int("reloaders", 2, "concurrent dataset-reload goroutines")
		datasetN  = flag.Int("n", 300, "synthetic dataset size")
		seed      = flag.Int64("seed", 1, "workload seed")
		out       = flag.String("out", "BENCH_chaos.json", "summary JSON path (appended)")
		slowlog   = flag.String("slowlog", defaultSlowlog(), "server slow-query log path (default derives from $SIM_ARTIFACT_DIR; empty disables)")
	)
	flag.Parse()

	sum, err := chaostest.Run(context.Background(), chaostest.Options{
		FaultFor:    *faultFor,
		CoolFor:     *coolFor,
		Clients:     *clients,
		Reloaders:   *reloaders,
		DatasetN:    *datasetN,
		Seed:        *seed,
		SlowlogPath: *slowlog,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(sum)
	if err := benchrec.Append(*out, sum); err != nil {
		fmt.Fprintln(os.Stderr, "chaos: append summary:", err)
		os.Exit(1)
	}
	fmt.Printf("summary appended to %s\n", *out)

	if v := sum.Violations(); len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintln(os.Stderr, "chaos: invariant broken:", msg)
		}
		os.Exit(1)
	}
	fmt.Println("all service-level invariants held")
}

// defaultSlowlog places the server's slow-query log in $SIM_ARTIFACT_DIR when
// CI sets it (the same directory the sim harness uploads on failure), so a
// broken soak leaves the sampled flight records behind as an artifact.
func defaultSlowlog() string {
	dir := os.Getenv("SIM_ARTIFACT_DIR")
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	return filepath.Join(dir, "chaos-slowlog.jsonl")
}

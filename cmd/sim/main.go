// Command sim soaks the deterministic simulation harness of internal/sim:
// seeded model-based histories — interleaved queries, durable mutations,
// WAL restarts, checkpoints, cache invalidations and dataset reloads — run
// against the real stack (embedded DB and in-process HTTP server) while the
// brute-force oracle model predicts every answer, plus the metamorphic layer
// replaying DB histories under paper-derived transforms.
//
// A divergence is shrunk to a minimal failing history (ddmin), serialized as
// a replayable .simtrace next to the summary, and the run exits non-zero;
// the trace replays byte-for-byte with
//
//	go test ./internal/sim -run TestSimReplay -sim.trace=<file>
//
// The schema-versioned run summary is printed and appended to the output
// JSON (an array of runs; default BENCH_sim.json), the repo's BENCH_*.json
// convention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchrec"
	"repro/internal/sim"
)

// result is the schema-versioned summary record of one soak run.
type result struct {
	SchemaVersion int      `json:"schema_version"`
	Harness       string   `json:"harness"`
	Timestamp     string   `json:"timestamp"`
	Mode          string   `json:"mode"`
	Soak          bool     `json:"soak"`
	Histories     int      `json:"histories"`
	Ops           int      `json:"ops"`
	Queries       int      `json:"queries"`
	Mutations     int      `json:"mutations"`
	Restarts      int      `json:"restarts"`
	Checkpoints   int      `json:"checkpoints"`
	SafeProbes    int      `json:"safe_probes"`
	MetaRuns      int      `json:"meta_runs"`
	Seconds       float64  `json:"seconds"`
	Divergences   []string `json:"divergences,omitempty"`
	Violations    []string `json:"violations,omitempty"`
	Traces        []string `json:"traces,omitempty"`
}

func main() {
	var (
		mode     = flag.String("mode", "both", "history mode: db, server or both")
		ops      = flag.Int("ops", 1000, "ops per history")
		seeds    = flag.Int("seeds", 4, "histories per mode")
		seed     = flag.Int64("seed", 1, "first seed (histories use seed, seed+1, ...)")
		baseN    = flag.Int("base", 48, "base dataset size")
		meta     = flag.Bool("meta", true, "run the metamorphic transforms on 2-d DB histories")
		soak     = flag.Bool("soak", false, "soak scale: 4x seeds, 5x ops")
		out      = flag.String("out", "BENCH_sim.json", "summary JSON path (appended)")
		traceDir = flag.String("trace-dir", ".", "directory for shrunk .simtrace files on failure")
	)
	flag.Parse()

	if *soak {
		*seeds *= 4
		*ops *= 5
	}
	var modes []sim.Mode
	switch *mode {
	case "db":
		modes = []sim.Mode{sim.ModeDB}
	case "server":
		modes = []sim.Mode{sim.ModeServer}
	case "both":
		modes = []sim.Mode{sim.ModeDB, sim.ModeServer}
	default:
		fmt.Fprintf(os.Stderr, "sim: unknown -mode %q (want db, server or both)\n", *mode)
		os.Exit(2)
	}

	start := time.Now()
	res := &result{SchemaVersion: 1, Harness: "sim/v1",
		Timestamp: start.UTC().Format(time.RFC3339), Mode: *mode, Soak: *soak}

	for _, m := range modes {
		for i := 0; i < *seeds; i++ {
			dims := 2
			if m == sim.ModeDB && i%2 == 1 {
				dims = 3 // alternate dimensionality on the DB side
			}
			gc := sim.GenConfig{Mode: m, Seed: *seed + int64(i), Dims: dims,
				BaseN: *baseN, Ops: *ops}
			h := sim.Generate(gc)
			if err := runOne(res, h, *meta, *traceDir); err != nil {
				fmt.Fprintln(os.Stderr, "sim:", err)
				os.Exit(1)
			}
		}
	}
	res.Seconds = time.Since(start).Seconds()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if err := benchrec.Append(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "sim: append summary:", err)
		os.Exit(1)
	}
	fmt.Printf("summary appended to %s\n", *out)

	if len(res.Divergences)+len(res.Violations) > 0 {
		for _, d := range res.Divergences {
			fmt.Fprintln(os.Stderr, "sim: divergence:", d)
		}
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "sim: metamorphic violation:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("model agreed across %d histories (%d ops, %d queries, %d restarts)\n",
		res.Histories, res.Ops, res.Queries, res.Restarts)
}

// runOne executes one history (and, when asked, its metamorphic transforms),
// folding the report into res; a divergence is shrunk and serialized.
func runOne(res *result, h sim.History, meta bool, traceDir string) error {
	scratch, err := os.MkdirTemp("", "sim-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := sim.Config{Dir: filepath.Join(scratch, "base"), Workers: 2, CacheSize: 64}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}

	runMeta := meta && h.Mode == sim.ModeDB && h.Dims == 2
	var rep *sim.Report
	var metaRuns []sim.MetaRun
	if runMeta {
		n := 0
		rep, metaRuns, err = sim.RunMetamorphic(cfg, h, func(name string) string {
			n++
			d := filepath.Join(scratch, fmt.Sprintf("meta-%d-%s", n, name))
			os.MkdirAll(d, 0o755)
			return d
		})
	} else {
		rep, err = sim.Run(cfg, h)
	}
	if err != nil {
		return err
	}

	res.Histories++
	res.Ops += rep.Ops
	res.Queries += rep.Queries
	res.Mutations += rep.Mutations
	res.Restarts += rep.Restarts
	res.Checkpoints += rep.Checkpoints
	res.SafeProbes += rep.SafeProbes
	res.MetaRuns += len(metaRuns)

	label := fmt.Sprintf("%s-d%d-seed%d", h.Mode, h.Dims, h.Seed)
	if rep.Divergence != nil {
		msg := fmt.Sprintf("%s: %s", label, rep.Divergence)
		if path, err := shrinkToTrace(h, traceDir, label); err != nil {
			msg += fmt.Sprintf(" (shrink failed: %v)", err)
		} else {
			res.Traces = append(res.Traces, path)
			msg += " (shrunk trace: " + path + ")"
		}
		res.Divergences = append(res.Divergences, msg)
	}
	for _, mr := range metaRuns {
		if mr.Violation != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: %s", label, mr.Violation))
		}
	}
	return nil
}

// shrinkToTrace ddmin-shrinks a failing history in fresh scratch directories
// and writes the minimal failing .simtrace, returning its path.
func shrinkToTrace(h sim.History, traceDir, label string) (string, error) {
	fails := func(cand sim.History) bool {
		dir, err := os.MkdirTemp("", "sim-shrink-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		rep, err := sim.Run(sim.Config{Dir: dir, Workers: 2, CacheSize: 64}, cand)
		return err == nil && rep.Divergence != nil
	}
	shrunk := sim.Shrink(h, fails)
	path := filepath.Join(traceDir, label+".simtrace")
	if err := sim.WriteTrace(path, shrunk); err != nil {
		return "", err
	}
	return path, nil
}

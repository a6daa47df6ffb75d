// Command crash soaks the WAL kill-injection harness of
// internal/wal/crashtest: for every log write/fsync/rotate/snapshot boundary
// it repeatedly re-executes itself as a child running a durable mutating
// workload, SIGKILLs the child at that boundary, recovers the directory with
// the production recovery path, and checks the durability contract —
// acknowledged mutations survive, the recovered state equals an oracle
// replay, queries answer identically, and the log accepts new appends.
// After that site × visit matrix it runs the composed kill × storage-fault
// trials (crashtest.ComposedTrials): a crash while degraded read-only,
// inside the reopen probe, and inside a scrubber quarantine.
//
// The schema-versioned run summary is printed and appended to the output
// JSON (an array of runs; default BENCH_crash.json). Any durability
// violation exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchrec"
	"repro/internal/wal/crashtest"
)

func main() {
	// A re-exec'd child must enter the workload before flag parsing: the
	// parent controls it entirely by environment.
	if crashtest.IsChild() {
		crashtest.ChildMain()
	}
	var (
		mutations = flag.Int("mutations", 200, "workload length per trial")
		visits    = flag.Uint64("visits", 8, "kill each site at visit numbers 1..visits")
		seed      = flag.Int64("seed", 1, "workload seed")
		segBytes  = flag.Int64("segment-bytes", 512, "WAL segment rotation threshold (small forces rotation coverage)")
		ckpt      = flag.Int("checkpoint-every", 25, "checkpoint cadence in mutations (reaches the snapshot kill sites)")
		dir       = flag.String("dir", "", "scratch directory (default: a temp dir, removed afterwards)")
		out       = flag.String("out", "BENCH_crash.json", "summary JSON path (appended)")
	)
	flag.Parse()

	scratch := *dir
	if scratch == "" {
		tmp, err := os.MkdirTemp("", "wal-crash-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		scratch = tmp
	}

	res, err := crashtest.Run(crashtest.Options{
		Dir:             scratch,
		Mutations:       *mutations,
		Seed:            *seed,
		SegmentBytes:    *segBytes,
		CheckpointEvery: *ckpt,
		Trials:          append(crashtest.DefaultTrials(*visits), crashtest.ComposedTrials()...),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if err := benchrec.Append(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "crash: append summary:", err)
		os.Exit(1)
	}
	fmt.Printf("summary appended to %s\n", *out)

	if len(res.Violations) > 0 {
		for _, msg := range res.Violations {
			fmt.Fprintln(os.Stderr, "crash: durability violated:", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("durability held across %d kills (%d trials)\n", res.Kills, res.Trials)
}

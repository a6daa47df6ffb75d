// Command fsfault soaks the WAL storage-fault harness of
// internal/wal/faulttest: for every injectable fault kind (EIO, ENOSPC,
// short write, fsync failure, read-time bit flip) at every write-path call
// site it runs a seeded durable workload behind a fault-injecting
// filesystem and checks the storage-fault contract — faulted mutations are
// refused read-only and never half-applied, queries keep answering
// correctly while degraded, Reopen restores writability, failed checkpoints
// are non-fatal and leave no temp files, and one scrub pass finds and
// quarantines 100% of injected rot without degrading the log.
//
// The schema-versioned run summary is printed and appended to the output
// JSON (an array of runs; default BENCH_fsfault.json). Any contract
// violation — or a run that never exercised a degraded→recovered transition
// or a quarantine — exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchrec"
	"repro/internal/wal/faulttest"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 1, "number of workload seeds to run the full matrix under")
		seed      = flag.Int64("seed", 1, "first workload seed")
		mutations = flag.Int("mutations", 60, "workload length per trial")
		segBytes  = flag.Int64("segment-bytes", 256, "WAL segment rotation threshold (small forces rotation and sealed segments)")
		soak      = flag.Bool("soak", false, "soak mode: 8 seeds x 240 mutations unless overridden")
		dir       = flag.String("dir", "", "scratch directory (default: a temp dir, removed afterwards)")
		out       = flag.String("out", "BENCH_fsfault.json", "summary JSON path (appended)")
	)
	flag.Parse()

	nSeeds, nMut := *seeds, *mutations
	if *soak {
		if nSeeds == 1 {
			nSeeds = 8
		}
		if nMut == 60 {
			nMut = 240
		}
	}

	scratch := *dir
	if scratch == "" {
		tmp, err := os.MkdirTemp("", "wal-fsfault-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsfault:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		scratch = tmp
	}

	failed := false
	for i := 0; i < nSeeds; i++ {
		s := *seed + int64(i)
		res, err := faulttest.Run(faulttest.Options{
			Dir:          fmt.Sprintf("%s/seed%d", scratch, s),
			Mutations:    nMut,
			Seed:         s,
			SegmentBytes: *segBytes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsfault:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		if err := benchrec.Append(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "fsfault: append summary:", err)
			os.Exit(1)
		}
		for _, msg := range res.Violations {
			fmt.Fprintln(os.Stderr, "fsfault: contract violated:", msg)
			failed = true
		}
		// A clean run must actually have exercised the machinery it claims to
		// prove: at least one full degraded→recovered transition and at least
		// one quarantine, or the matrix silently stopped covering the paths.
		if res.DegradedRecovered == 0 {
			fmt.Fprintf(os.Stderr, "fsfault: seed %d exercised no degraded→recovered transition\n", s)
			failed = true
		}
		if res.ScrubQuarantined == 0 {
			fmt.Fprintf(os.Stderr, "fsfault: seed %d exercised no quarantine\n", s)
			failed = true
		}
		if res.RotFound != res.RotInjected {
			fmt.Fprintf(os.Stderr, "fsfault: seed %d scrubber found %d of %d rot sites\n",
				s, res.RotFound, res.RotInjected)
			failed = true
		}
	}
	fmt.Printf("summaries appended to %s\n", *out)
	if failed {
		os.Exit(1)
	}
	fmt.Printf("storage-fault contract held across %d seed(s)\n", nSeeds)
}

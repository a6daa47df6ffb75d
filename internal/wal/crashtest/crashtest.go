// Package crashtest is the kill-injection harness for the WAL: the proof
// that "acknowledged" means "survives a crash".
//
// A trial re-executes the current binary as a child process that runs a
// deterministic mutating workload (durable inserts and deletes with periodic
// checkpoints) against a fresh WAL directory, with a fault-injection hook
// installed at the log's write/fsync/rotate/snapshot boundaries. At the
// configured site and visit number the hook SIGKILLs the child — no deferred
// cleanup, no flush, exactly what a crash looks like to the filesystem. The
// parent then recovers the directory with the ordinary recovery path and
// checks the durability contract:
//
//   - recovery succeeds (kill-induced damage is never "corruption"),
//   - every mutation the child acknowledged before dying is present,
//   - the recovered item set equals an oracle replay of the first LastSeq
//     mutations of the deterministic stream,
//   - the recovered DB answers reverse-skyline probes identically to a fresh
//     DB built from the oracle state,
//   - the recovered log accepts new appends.
//
// The same harness backs the short `go test` smoke (run under -race by
// `make race-core`) and the cmd/crash soak binary; only the trial matrix
// differs. Both binaries must route their main through IsChild/ChildMain so
// the re-exec lands in the workload instead of the test driver.
package crashtest

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/engine/faultinject"
	"repro/internal/wal"
	"repro/internal/wal/vfs"
)

// Child-process configuration travels by environment: the child is this same
// binary re-executed, recognised by childEnv before any flag parsing.
const (
	childEnv        = "WAL_CRASHTEST_CHILD"
	envDir          = "WAL_CRASHTEST_DIR"
	envAcks         = "WAL_CRASHTEST_ACKS"
	envSeed         = "WAL_CRASHTEST_SEED"
	envMutations    = "WAL_CRASHTEST_MUTATIONS"
	envSite         = "WAL_CRASHTEST_SITE"
	envVisit        = "WAL_CRASHTEST_VISIT"
	envSegmentBytes = "WAL_CRASHTEST_SEGMENT_BYTES"
	envCkptEvery    = "WAL_CRASHTEST_CKPT_EVERY"
	envMode         = "WAL_CRASHTEST_MODE"
)

// Composed modes: the child drives the log into a storage-fault scenario
// (via the vfs fault injector) before the kill fires, so the crash lands in
// the middle of the degraded-mode machinery instead of the happy path. The
// recovery invariants are exactly the same four as the plain kill matrix.
const (
	// ModeDegraded crashes while the log is parked read-only by an injected
	// write fault: the kill hits a process whose last mutation was refused.
	ModeDegraded = "degraded"
	// ModeReopen crashes inside the reopen probe, right as a degraded log is
	// re-armed — after the repair work, before the caller sees success.
	ModeReopen = "reopen"
	// ModeQuarantine crashes inside the scrubber's quarantine of a rotten
	// sealed segment, after the salvage checkpoint made the rot coverable.
	ModeQuarantine = "quarantine"
)

// Sites is the full kill-site matrix: every boundary the log passes a
// mutation through on its way to disk.
var Sites = []string{
	wal.SiteAppend,
	wal.SiteWrite,
	wal.SiteSync,
	wal.SiteRotate,
	wal.SiteSnapshotWrite,
	wal.SiteSnapshotRename,
}

// Trial kills the child at the n-th visit of one site. A visit number the
// workload never reaches yields a clean exit, which the harness counts but
// does not fail on — the recovery checks run either way.
type Trial struct {
	Site  string `json:"site"`
	Visit uint64 `json:"visit"`
	// Mode, when non-empty, composes the kill with storage-fault injection:
	// the child runs the Mode* scenario and dies inside it (at Site/Visit for
	// hook-placed kills, or by its own hand for ModeDegraded).
	Mode string `json:"mode,omitempty"`
}

// Options sizes one harness run. The zero value is a small smoke; cmd/crash
// scales the matrix up for soaking.
type Options struct {
	// Dir is the scratch root; every trial gets its own subdirectory.
	// Required.
	Dir string
	// Mutations is the workload length per trial. Default 40.
	Mutations int
	// Seed drives the deterministic mutation stream. Default 1.
	Seed int64
	// SegmentBytes forces frequent rotation so SiteRotate is reachable.
	// Default 512.
	SegmentBytes int64
	// CheckpointEvery checkpoints the child every n mutations so the
	// snapshot sites are reachable. Default 10.
	CheckpointEvery int
	// Trials is the kill matrix; empty runs DefaultTrials(2).
	Trials []Trial
}

func (o Options) withDefaults() Options {
	if o.Mutations <= 0 {
		o.Mutations = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 512
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if len(o.Trials) == 0 {
		o.Trials = DefaultTrials(2)
	}
	return o
}

// DefaultTrials builds the site × visit matrix: every kill site at visit
// numbers 1..visits.
func DefaultTrials(visits uint64) []Trial {
	var ts []Trial
	for _, site := range Sites {
		for v := uint64(1); v <= visits; v++ {
			ts = append(ts, Trial{Site: site, Visit: v})
		}
	}
	return ts
}

// Result is the schema-versioned outcome of one harness run; cmd/crash
// appends it to BENCH_crash.json.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Harness       string `json:"harness"`

	Trials     int `json:"trials"`
	Kills      int `json:"kills"`
	CleanExits int `json:"clean_exits"`

	AckedTotal     int64 `json:"acked_total"`
	RecoveredTotal int64 `json:"recovered_records_total"`
	TornTails      int64 `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	Snapshots      int64 `json:"snapshots_recovered_from"`

	Mutations  int   `json:"mutations_per_trial"`
	Seed       int64 `json:"seed"`
	DurationMS int64 `json:"duration_ms"`

	// Violations lists every broken durability invariant; empty means the
	// contract held at every kill point.
	Violations []string `json:"violations"`
}

// Run executes the trial matrix and aggregates the outcome. An error means
// the harness itself broke (exec failure, unusable scratch dir) — durability
// violations are reported in Result.Violations instead.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("crashtest: Options.Dir is required")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("crashtest: locating own binary: %w", err)
	}
	start := time.Now()
	res := &Result{
		SchemaVersion: 1,
		Harness:       "wal-crashtest/v1",
		Trials:        len(opts.Trials),
		Mutations:     opts.Mutations,
		Seed:          opts.Seed,
	}
	for i, tr := range opts.Trials {
		if err := runTrial(exe, opts, i, tr, res); err != nil {
			return nil, err
		}
	}
	res.DurationMS = time.Since(start).Milliseconds()
	return res, nil
}

func runTrial(exe string, opts Options, idx int, tr Trial, res *Result) error {
	label := strings.ReplaceAll(tr.Site, ".", "_")
	if tr.Mode != "" {
		label = "mode_" + tr.Mode
	}
	root := filepath.Join(opts.Dir, fmt.Sprintf("t%03d-%s-v%d", idx, label, tr.Visit))
	walDir := filepath.Join(root, "wal")
	acksPath := filepath.Join(root, "acks")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("crashtest: scratch dir: %w", err)
	}

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		childEnv+"=1",
		envDir+"="+walDir,
		envAcks+"="+acksPath,
		envSeed+"="+strconv.FormatInt(opts.Seed, 10),
		envMutations+"="+strconv.Itoa(opts.Mutations),
		envSite+"="+tr.Site,
		envVisit+"="+strconv.FormatUint(tr.Visit, 10),
		envSegmentBytes+"="+strconv.FormatInt(opts.SegmentBytes, 10),
		envCkptEvery+"="+strconv.Itoa(opts.CheckpointEvery),
		envMode+"="+tr.Mode,
	)
	var childErr strings.Builder
	cmd.Stderr = &childErr
	err := cmd.Run()
	switch {
	case err == nil:
		// The kill site was never reached at that visit number; the workload
		// ran to completion. Recovery below must still be clean.
		res.CleanExits++
	case wasKilled(err):
		res.Kills++
	default:
		// The child failed on its own — a workload bug, not a crash. That is
		// a harness-level failure worth surfacing loudly.
		return fmt.Errorf("crashtest: child %s/v%d failed: %v\n%s", label, tr.Visit, err, childErr.String())
	}

	acked, err := readAcks(acksPath)
	if err != nil {
		return err
	}
	res.AckedTotal += int64(len(acked))

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("[%s visit %d] ", label, tr.Visit)+fmt.Sprintf(format, args...))
	}

	// Recover with the production path — no hook, no special cases. A crash
	// must never look like corruption.
	base := BaseItems(opts.Seed)
	db, rec, err := repro.OpenDurable(probeDims, base, repro.DBOptions{
		Durability: &repro.DurabilityOptions{Dir: walDir, Policy: wal.SyncAlways},
	})
	if err != nil {
		violate("recovery failed: %v", err)
		return nil
	}
	defer func() {
		if cerr := db.Close(); cerr != nil {
			violate("closing recovered log: %v", cerr)
		}
	}()
	res.RecoveredTotal += int64(len(rec.Tail))
	if rec.TornTail {
		res.TornTails++
		res.TruncatedBytes += rec.TruncatedBytes
	}
	if rec.HaveSnapshot {
		res.Snapshots++
	}

	// Invariant 1: nothing acknowledged is lost. Acks are written strictly
	// after the WAL append returns, so LastSeq must cover every acked seq.
	var maxAck uint64
	for _, seq := range acked {
		if seq > maxAck {
			maxAck = seq
		}
	}
	if rec.LastSeq < maxAck {
		violate("acknowledged seq %d lost: recovery stops at %d", maxAck, rec.LastSeq)
		return nil
	}

	// Invariant 2: the recovered state is exactly an oracle replay of the
	// first LastSeq mutations of the deterministic stream — no ghosts, no
	// partial applications.
	stream := Stream(opts.Seed, opts.Mutations)
	if rec.LastSeq > uint64(len(stream)) {
		violate("recovered seq %d exceeds the %d-mutation stream", rec.LastSeq, len(stream))
		return nil
	}
	want := Replay(base, stream[:rec.LastSeq])
	got := db.DurableItems()
	if !sameItems(got, want) {
		violate("recovered %d items != oracle %d items at seq %d", len(got), len(want), rec.LastSeq)
		return nil
	}

	// Invariant 3: the recovered index answers like a fresh build of the
	// oracle state — recovery feeds the same query machinery, not a lookalike.
	oracle := repro.NewDBWithOptions(probeDims, want, repro.DBOptions{})
	for _, q := range probePoints() {
		a := idsOf(db.ReverseSkylineBBRS(q))
		b := idsOf(oracle.ReverseSkylineBBRS(q))
		if !sameIDs(a, b) {
			violate("RSL(%v) mismatch: recovered %v, oracle %v", q, a, b)
			return nil
		}
		if !sameIDs(idsOf(db.DynamicSkyline(q)), idsOf(oracle.DynamicSkyline(q))) {
			violate("DSL(%v) mismatch after recovery", q)
			return nil
		}
	}

	// Invariant 4: the log is live again — recovery hands back a writable
	// log, not a read-only autopsy.
	if _, err := db.InsertDurable(repro.Item{ID: reopenProbeID + idx, Point: repro.NewPoint(1, 1)}); err != nil {
		violate("post-recovery append failed: %v", err)
	}
	return nil
}

// wasKilled reports whether the child died from our injected SIGKILL.
func wasKilled(err error) bool {
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) {
		return false
	}
	// -1 exit code means "terminated by signal"; the only signal the harness
	// sends is KILL, and the workload installs no handlers.
	return xerr.ExitCode() == -1
}

func readAcks(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil // killed before the first ack
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var acks []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		seq, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			// A torn final ack line (the kill raced the write) is not
			// evidence of an acknowledged mutation; ignore it.
			continue
		}
		acks = append(acks, seq)
	}
	return acks, sc.Err()
}

// ---------------------------------------------------------------------------
// Deterministic workload, shared verbatim by child and oracle.

const (
	probeDims     = 2
	baseItemCount = 50
	insertIDBase  = 1_000_000
	reopenProbeID = 2_000_000
)

// Op is a workload mutation kind.
type Op int

// Workload mutation kinds.
const (
	OpInsert Op = iota + 1
	OpDelete
)

// Mutation is one step of the deterministic stream.
type Mutation struct {
	Op   Op
	Item repro.Item
}

// BaseItems is the trial's base dataset lineage: the items the WAL directory
// is opened over before any mutation.
func BaseItems(seed int64) []repro.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]repro.Item, baseItemCount)
	for i := range items {
		items[i] = repro.Item{
			ID:    i + 1,
			Point: repro.NewPoint(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	return items
}

// Stream generates the deterministic mutation sequence for a seed: ~65%
// inserts of fresh IDs, else deletes of a random live item (never below five
// live items, so probe queries always have a dataset). Child and parent call
// this with the same arguments and get the same stream — that is what makes
// the oracle replay exact.
func Stream(seed int64, count int) []Mutation {
	rng := rand.New(rand.NewSource(seed + 1)) // distinct from BaseItems' stream
	live := BaseItems(seed)
	muts := make([]Mutation, 0, count)
	for i := 0; i < count; i++ {
		if rng.Float64() < 0.65 || len(live) <= 5 {
			it := repro.Item{
				ID:    insertIDBase + i,
				Point: repro.NewPoint(rng.Float64()*1000, rng.Float64()*1000),
			}
			muts = append(muts, Mutation{Op: OpInsert, Item: it})
			live = append(live, it)
		} else {
			j := rng.Intn(len(live))
			muts = append(muts, Mutation{Op: OpDelete, Item: live[j]})
			live = append(live[:j], live[j+1:]...)
		}
	}
	return muts
}

// Replay applies a stream prefix to a base item set, returning the oracle
// state sorted by ID.
func Replay(base []repro.Item, muts []Mutation) []repro.Item {
	byID := make(map[int]repro.Item, len(base))
	for _, it := range base {
		byID[it.ID] = it
	}
	for _, m := range muts {
		if m.Op == OpInsert {
			byID[m.Item.ID] = m.Item
		} else {
			delete(byID, m.Item.ID)
		}
	}
	items := make([]repro.Item, 0, len(byID))
	for _, it := range byID {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	return items
}

func probePoints() []repro.Point {
	return []repro.Point{
		repro.NewPoint(500, 500),
		repro.NewPoint(100, 900),
		repro.NewPoint(900, 100),
	}
}

func idsOf(items []repro.Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

func sameIDs(a, b []int) bool {
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

func sameItems(a, b []repro.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Point.Equal(b[i].Point) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Child process.

// IsChild reports whether this process is a crashtest re-exec. Binaries that
// embed the harness must check it first thing in main (or TestMain) and call
// ChildMain.
func IsChild() bool { return os.Getenv(childEnv) == "1" }

// ChildMain runs the mutating workload and never returns: it either exits,
// or dies mid-write from its own injected SIGKILL.
func ChildMain() {
	if err := childRun(); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func childRun() error {
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %v", envSeed, err)
	}
	mutations, err := strconv.Atoi(os.Getenv(envMutations))
	if err != nil {
		return fmt.Errorf("bad %s: %v", envMutations, err)
	}
	visit, err := strconv.ParseUint(os.Getenv(envVisit), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %v", envVisit, err)
	}
	segBytes, err := strconv.ParseInt(os.Getenv(envSegmentBytes), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %v", envSegmentBytes, err)
	}
	ckptEvery, err := strconv.Atoi(os.Getenv(envCkptEvery))
	if err != nil {
		return fmt.Errorf("bad %s: %v", envCkptEvery, err)
	}
	dir, acksPath, site := os.Getenv(envDir), os.Getenv(envAcks), os.Getenv(envSite)

	if mode := os.Getenv(envMode); mode != "" {
		return childComposed(mode, dir, acksPath, site, visit, seed, mutations, segBytes)
	}

	// The kill is immediate and unconditional: SIGKILL cannot be caught, so
	// nothing below the hook — not the WAL, not the acks file — gets a chance
	// to clean up. The empty select parks the hook's goroutine for the
	// microseconds signal delivery takes, so no post-kill code runs either.
	killer := faultinject.New(faultinject.Rule{
		Site:    site,
		OnVisit: visit,
		Do:      selfKill,
	})

	db, _, err := repro.OpenDurable(probeDims, BaseItems(seed), repro.DBOptions{
		Durability: &repro.DurabilityOptions{
			Dir:          dir,
			Policy:       wal.SyncAlways,
			SegmentBytes: segBytes,
			Hook:         killer,
		},
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	acks, err := os.OpenFile(acksPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("acks file: %w", err)
	}

	for i, m := range Stream(seed, mutations) {
		var seq uint64
		if m.Op == OpInsert {
			seq, err = db.InsertDurable(m.Item)
		} else {
			seq, err = db.DeleteDurable(m.Item)
		}
		if err != nil {
			return fmt.Errorf("mutation %d: %w", i+1, err)
		}
		// The ack line is the parent's evidence that the client saw a
		// success. SIGKILL kills the process, not the kernel: a completed
		// write() survives in the page cache, so no fsync is needed here.
		if _, err := fmt.Fprintf(acks, "%d\n", seq); err != nil {
			return fmt.Errorf("ack %d: %w", seq, err)
		}
		if (i+1)%ckptEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint after %d: %w", i+1, err)
			}
		}
	}
	if err := acks.Close(); err != nil {
		return err
	}
	return db.Close()
}

// selfKill delivers the injected crash: SIGKILL to our own pid, then park
// the calling goroutine so no post-kill code runs in the microseconds signal
// delivery takes. Nothing — not the WAL, not the acks file — gets a chance
// to clean up, exactly what a crash looks like to the filesystem.
func selfKill() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {}
}

// childComposed drives one storage-fault composition scenario and dies
// inside it. Every path out of this function other than the kill is an
// error: a composed child that survives its scenario means the composition
// no longer reaches the machinery it exists to crash.
func childComposed(mode, dir, acksPath, site string, visit uint64, seed int64, mutations int, segBytes int64) error {
	wopts := repro.DurabilityOptions{Dir: dir, Policy: wal.SyncAlways, SegmentBytes: segBytes}
	if site != "" {
		wopts.Hook = faultinject.New(faultinject.Rule{Site: site, OnVisit: visit, Do: selfKill})
	}
	// An unlimited write fault on segment files; armed only inside the
	// scenario's fault window.
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Fault: vfs.FaultEIO})
	ffs.SetArmed(false)
	wopts.FS = ffs

	db, _, err := repro.OpenDurable(probeDims, BaseItems(seed), repro.DBOptions{Durability: &wopts})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	acks, err := os.OpenFile(acksPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("acks file: %w", err)
	}

	stream := Stream(seed, mutations)
	apply := func(m Mutation) (uint64, error) {
		if m.Op == OpInsert {
			return db.InsertDurable(m.Item)
		}
		return db.DeleteDurable(m.Item)
	}
	// Healthy prefix: acknowledged mutations the recovery invariants will
	// demand back. ModeQuarantine applies the whole stream (the crash comes
	// from rot, not a write fault) with a mid-stream checkpoint so sealed,
	// snapshot-uncovered segments exist to rot; the fault-window modes stop
	// at two thirds and fail the next mutation.
	healthy := len(stream) * 2 / 3
	if mode == ModeQuarantine {
		healthy = len(stream)
	}
	for i, m := range stream[:healthy] {
		seq, err := apply(m)
		if err != nil {
			return fmt.Errorf("healthy mutation %d: %w", i+1, err)
		}
		if _, err := fmt.Fprintf(acks, "%d\n", seq); err != nil {
			return fmt.Errorf("ack %d: %w", seq, err)
		}
		if mode == ModeQuarantine && i+1 == len(stream)/2 {
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("mid-stream checkpoint: %w", err)
			}
		}
	}

	switch mode {
	case ModeDegraded, ModeReopen:
		ffs.SetArmed(true)
		if _, err := apply(stream[healthy]); !errors.Is(err, repro.ErrReadOnly) {
			return fmt.Errorf("faulted mutation: got %v, want ErrReadOnly", err)
		}
		if mode == ModeDegraded {
			selfKill()
		}
		// ModeReopen: the disk "recovers", and the reopen probe's success
		// visit carries the kill — the crash lands after the repair work,
		// before any caller observes a writable log.
		ffs.SetArmed(false)
		if err := db.ReopenWAL(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		return errors.New("survived the reopen kill site")
	case ModeQuarantine:
		// Rot the first sealed segment the mid-stream checkpoint does not
		// cover, then scrub: the salvage checkpoint covers it, and the
		// quarantine rename carries the kill.
		if err := rotFirstSealedSegment(dir); err != nil {
			return err
		}
		if _, err := db.ScrubWAL(repro.ScrubConfig{}); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		return errors.New("survived the quarantine kill site")
	default:
		return fmt.Errorf("unknown composed mode %q", mode)
	}
}

// rotFirstSealedSegment flips one bit in the middle of the oldest sealed
// (non-active) segment file.
func rotFirstSealedSegment(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		return fmt.Errorf("no sealed segment to rot (have %v)", segs)
	}
	path := filepath.Join(dir, segs[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		return fmt.Errorf("sealed segment %s is empty", segs[0])
	}
	buf[len(buf)/2] ^= 1
	return os.WriteFile(path, buf, 0o644)
}

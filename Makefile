# Development gate for this repository.
#
# `make check` is the full tier-1 gate (see ROADMAP.md): everything it runs
# must pass before a change lands. The individual targets exist so CI and
# humans can run the slices separately.

GO ?= go

# How long each fuzz target runs in the smoke pass. The point is crash
# detection on fresh mutations of the seed corpus, not deep exploration.
FUZZTIME ?= 10s

.PHONY: check build vet vet-obs vet-wal vet-surface vet-callers test race race-core bench-module bench-diff fuzz-smoke crash-smoke sim-smoke fsfault-smoke fsfault-soak chaos bench

check: vet-obs vet-wal vet-surface vet-callers build test race race-core bench-module bench-diff fuzz-smoke crash-smoke sim-smoke fsfault-smoke
	@echo "tier-1 gate: OK"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Observability lint on top of go vet: the query-path packages must take
# timestamps through internal/obs (monotonic, mockable via SetClockForTest,
# batched into histograms) — a raw time.Now() in a hot loop is both a per-
# iteration cost and untestable. internal/obs itself anchors the process
# clock and internal/experiments measures wall-clock by design; both are
# exempt, as are tests and the cmd/ front-ends.
OBS_LINT_PKGS = internal/rtree internal/skyline internal/rskyline internal/whynot \
	internal/exec internal/region internal/geom internal/cancel internal/engine
vet-obs: vet
	@bad=$$(grep -rn 'time\.Now()' $(OBS_LINT_PKGS) --include='*.go' | grep -v _test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-obs: raw time.Now() on the query path (use internal/obs):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'time\.Now()' internal/obs/flight --include='*.go' | grep -v _test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-obs: raw time.Now() in the flight recorder (timestamps come from obs.Now; callers supply Epoch):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'time\.Now()' internal/obs/explain --include='*.go' | grep -v _test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-obs: raw time.Now() in the explain plan builder (per-node timings and model calibration must use obs.Now):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(for f in $$(grep -rl 'go func' internal/exec internal/engine --include='*.go' | grep -v _test.go); do \
		grep -q 'pprof\.Do' $$f || echo $$f; \
	done); \
	if [ -n "$$bad" ]; then \
		echo "vet-obs: worker-goroutine file without pprof.Do labels (profiles would attribute the hot path to anonymous funcs):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "vet-obs: OK"

# Durability lint on top of go vet: inside internal/wal every (*os.File)
# Sync and Close must have its error checked — an unchecked fsync error is
# an acknowledged-but-lost write, the exact bug the WAL exists to prevent.
# Discarding with `_ =` is also banned there; wrap in the named helpers or
# join the error instead.
vet-wal: vet
	@bad=$$(grep -nE '^[[:space:]]*(defer[[:space:]]+)?[A-Za-z_][A-Za-z0-9_.]*\.(Sync|Close)\(\)[[:space:]]*$$|_[[:space:]]*=[[:space:]]*[A-Za-z_][A-Za-z0-9_.]*\.(Sync|Close)\(\)' internal/wal/*.go | grep -v _test.go | grep -v 'vet-wal:allow' || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-wal: unchecked (*os.File).Sync/Close under internal/wal:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'os\.(OpenFile|Open|Create|Rename|Remove|ReadFile|ReadDir|MkdirAll|Truncate|WriteFile)\(' internal/wal/*.go | grep -v _test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-wal: direct os filesystem call under internal/wal (route it through Options.FS / internal/wal/vfs so fault injection sees it):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "vet-wal: OK"

# API-surface lint on top of go vet: each per-customer loop has one body,
# and its worker count lives on the DB (DBOptions.Parallelism, resolved once
# into rskyline.DB.SetWorkers). The query packages and the facade must not
# grow a second way to pass one: no exported *Parallel / *ParallelCtx /
# *ParallelContext twin, no exported function taking `workers int`, and no
# Workers field in engine.Config. Per-query state has one carrier too, the
# context: from the facade down to the reverse-skyline layer no function
# takes a *cancel.Checker, *obs.Trace or *explain.Builder parameter (on the
# signature line, or on its own line of a wrapped parameter list), and no
# exported *Checked twin exists. Each phase has one hook: from the facade
# down to the R-tree a phase opens only through explain.Phase (one trace
# span, plan node and pprof label under one name), so those layers never
# start a trace span, look up the plan builder or set pprof labels
# themselves (pprof.Do, which restores the caller's labels, stays allowed).
# Each query has one tally: the flight recorder, the plan builder and the
# server read a query's counts from it, never from deltas of the
# process-global counters. Tests and the cmd/ front-ends are exempt.
SURFACE_LINT_FILES = $(filter-out %_test.go,$(wildcard internal/rskyline/*.go internal/whynot/*.go internal/engine/*.go)) repro.go
CARRIER_LINT_FILES = $(filter-out %_test.go,$(wildcard internal/rskyline/*.go internal/whynot/*.go internal/exec/*.go)) repro.go
CARRIER_TYPES = \*(cancel\.Checker|obs\.Trace|explain\.Builder)
PHASE_LINT_FILES = $(filter-out %_test.go,$(wildcard internal/whynot/*.go internal/engine/*.go internal/rskyline/*.go \
	internal/skyline/*.go internal/rtree/*.go internal/exec/*.go)) repro.go
TALLY_LINT_FILES = $(filter-out %_test.go,$(wildcard internal/obs/flight/*.go internal/obs/explain/*.go internal/server/*.go))
vet-surface: vet
	@bad=$$(grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*Parallel(Ctx|Context)?\(' $(SURFACE_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: exported *Parallel twin (fan out inside the one body; the DB holds the worker count):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*\(([^)]*[ ,])?workers(, *[A-Za-z_][A-Za-z0-9_]*)* int\b' $(SURFACE_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: exported function with a workers int parameter (the DB holds the worker count):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(awk '/^type Config struct/ {c = 1} c && /^}/ {c = 0} c && /^[[:space:]]+Workers[[:space:]]/ {print FILENAME ":" FNR ": " $$0}' internal/engine/*.go); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: engine.Config has a Workers field (the rungs use the DB's worker count):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE -e 'func[[:space:]]*(\([^)]*\)[[:space:]]*)?[A-Za-z0-9_]*\([^)]*$(CARRIER_TYPES)' \
		-e '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*(,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+$(CARRIER_TYPES),$$' \
		$(CARRIER_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: checker, trace or plan builder passed as a parameter (the context carries them; bind the checker with cancel.Bind):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*Checked\(' $(CARRIER_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: exported *Checked twin (the ctx-first method is the one body):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '\b(StartSpan|AddSpan)\(|explain\.From\(|pprof\.(SetGoroutineLabels|WithLabels)\(' $(PHASE_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: a phase hook besides explain.Phase (it opens the trace span, plan node and pprof label in one call):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '\bobs\.Cost\(\)' $(TALLY_LINT_FILES) || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-surface: a query's counts taken from process-global deltas (read the query's tally):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "vet-surface: OK"

# Caller lint on top of go vet: no code without a caller. Every exported
# function or method declared in a non-test file under internal/ must have
# its name on some other line of a non-test .go file (benchmark/ included),
# comments and the declarations of that name aside; the hooks that exist
# for tests by design are listed, each with its reason, in
# tools/vet-callers.allow, and an entry the lint no longer flags fails as
# stale. It matches on names, not on resolved references, so a name that
# also appears elsewhere hides dead code: it would not have flagged
# explain.Builder.Start (other Start methods are called) or rtree.Tree.Count
# (Count is a word elsewhere).
GO_SOURCES = $(shell find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | sort)
vet-callers: vet
	@awk -v allow=tools/vet-callers.allow -f tools/vet-callers.awk $(GO_SOURCES) || \
		{ echo "vet-callers: exported code without a caller (delete it, move it into the tests, or allowlist it with a reason)"; exit 1; }
	@echo "vet-callers: OK"

# -shuffle=on randomises test (and subtest-source) execution order every
# run, so accidental inter-test state dependence surfaces instead of
# fossilising; the seed is printed on failure for exact reproduction.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Targeted race gate for the executor substrate, the differential oracle
# suite, the reverse-skyline and skyline layers (index traversals under the
# tree read lock racing Insert/Delete), the observability core (per-query
# tallies take concurrent flushes from every worker), and the serving layer
# (admission control, circuit breakers, hot-swap snapshots, chaos harness) —
# the packages whose whole point is concurrency correctness. Redundant with
# `race` but kept separate so the critical slice has its own fast signal.
race-core:
	$(GO) test -race -short ./internal/exec/... ./internal/cancel/... ./internal/whynot/... ./internal/engine/... ./internal/oracle/... ./internal/rskyline/... ./internal/skyline/... ./internal/obs/... ./internal/server/... ./internal/wal/... ./internal/sim/...

# The why-not benchmark (benchmark/, run by benchmark/run.sh) is a module of
# its own, so `go build ./...` and `go test ./...` above skip it. Vetting and
# testing it here makes an API change in a package it drives break this gate
# instead of the next benchmark run.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# Benchmark regression diff: latest vs previous same-config record in each
# BENCH_*.json, failing past a 20% slowdown. Non-blocking (leading -): shared
# runners are noisy, so a regression is a loud warning in the log, not a
# broken build. Run `go run ./cmd/benchdiff -v` locally for the full table.
bench-diff:
	-$(GO) run ./cmd/benchdiff

# go test accepts one -fuzz pattern per package invocation, hence one line
# per fuzz target.
fuzz-smoke:
	$(GO) test ./internal/dataset -run FuzzReadCSV -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/whynot -run FuzzLoadApproxStore -fuzz FuzzLoadApproxStore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/whynot -run FuzzMWPMQP -fuzz FuzzMWPMQP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/whynot -run FuzzSafeRegionWindowed -fuzz FuzzSafeRegionWindowed -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run FuzzDecodeRequests -fuzz FuzzDecodeRequests -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run FuzzDecodeFrame -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/region -run FuzzStaircaseCorners -fuzz FuzzStaircaseCorners -fuzztime $(FUZZTIME)

# Crash smoke: the WAL kill-injection soak at short length — every log
# write/fsync/rotate/snapshot boundary killed twice, recovery verified
# against the oracle replay. Appends to BENCH_crash.json.
crash-smoke:
	$(GO) run ./cmd/crash -mutations 60 -visits 2 -out BENCH_crash.json

# Storage-fault smoke: the WAL filesystem-fault matrix at short length —
# every injectable fault kind (EIO, ENOSPC, short write, fsync failure, read
# bit flip) at every write-path call site, with degraded-mode, reopen and
# scrubber-quarantine contracts checked per trial. Appends to
# BENCH_fsfault.json; the nightly soak runs the same harness with
# `-soak` (more seeds, longer workloads).
fsfault-smoke:
	$(GO) run ./cmd/fsfault -out BENCH_fsfault.json

fsfault-soak:
	$(GO) run ./cmd/fsfault -soak -out BENCH_fsfault.json

# Simulation smoke: short seeded model-based histories against the embedded
# DB and the in-process server, with the metamorphic transforms, checked
# op-by-op against the brute-force oracle model. A divergence shrinks to a
# replayable .simtrace and fails the target. Appends to BENCH_sim.json.
# With SIM_ARTIFACT_DIR set (as CI does), the embedded server also writes
# its slow-query log (sampled flight records) there for artifact upload.
sim-smoke:
	$(GO) run ./cmd/sim -seeds 2 -ops 400 -out BENCH_sim.json

# Chaos smoke at soak length: fault window + recovery against a live server,
# with the flight-ledger accounting invariants checked at the end. The slow
# -query log defaults into $$SIM_ARTIFACT_DIR when set.
chaos:
	$(GO) run ./cmd/chaos -fault 5s -cool 5s -out BENCH_chaos.json

bench:
	$(GO) test -bench=. -benchmem ./...

# Development gate for this repository.
#
# `make check` is the full tier-1 gate (see ROADMAP.md): everything it runs
# must pass before a change lands. The individual targets exist so CI and
# humans can run the slices separately.

GO ?= go

# How long each fuzz target runs in the smoke pass. The point is crash
# detection on fresh mutations of the seed corpus, not deep exploration.
FUZZTIME ?= 10s

.PHONY: check build vet vet-obs vet-wal test race race-core bench-module bench-smoke bench-diff fuzz-smoke crash-smoke sim-smoke fsfault-smoke fsfault-soak chaos bench

check: vet-obs vet-wal build test race race-core bench-module bench-smoke bench-diff fuzz-smoke crash-smoke sim-smoke fsfault-smoke
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
	internal/exec internal/region internal/geom internal/cancel internal/grid \
	internal/engine
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

# -shuffle=on randomises test (and subtest-source) execution order every
# run, so accidental inter-test state dependence surfaces instead of
# fossilising; the seed is printed on failure for exact reproduction.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Targeted race gate for the executor substrate, the differential oracle
# suite, and the serving layer (admission control, circuit breakers, hot-swap
# snapshots, chaos harness) — the packages whose whole point is concurrency
# correctness. Redundant with `race` but kept separate so the critical slice
# has its own fast signal.
race-core:
	$(GO) test -race -short ./internal/exec/... ./internal/oracle/... ./internal/server/... ./internal/wal/... ./internal/sim/...

# The why-not benchmark (benchmark/, run by benchmark/run.sh) is a module of
# its own, so `go build ./...` and `go test ./...` above skip it. Vetting and
# testing it here makes an API change in a package it drives break this gate
# instead of the next benchmark run.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# Benchmark smoke: the parallel/cache-aware configuration against the
# sequential reference on CarDB-50K, recorded as BENCH_parallel.json.
bench-smoke:
	$(GO) run ./cmd/parallelbench -out BENCH_parallel.json

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
	$(GO) test ./internal/server -run FuzzDecodeRequests -fuzz FuzzDecodeRequests -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run FuzzDecodeFrame -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)

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

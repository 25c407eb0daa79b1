GO ?= go

# VERSION is stamped into every binary via the linker so -version (and
# the daemon's /healthz) report which build is running.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X repro/internal/version.Version=$(VERSION)"

# ci is the tier-1 gate: build, vet, lint, tests, and a race pass over
# the packages that run simulations concurrently (the sweep engine, the
# figure drivers, and the daemon's job manager).
.PHONY: ci
ci: build vet lint test race

.PHONY: build
build:
	$(GO) build $(LDFLAGS) ./...

# vet also fails on any file gofmt would rewrite. perfbench/ is a
# nested module that ./... never reaches, so it is vetted on its own
# (which type-checks its tests too); its tests are not run here.
.PHONY: vet
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting (run gofmt -w):"; echo "$$unformatted"; exit 1; \
	fi

# lint runs the project's own analyzer suite (cmd/ccsimlint: engine
# determinism, sweep cache-key completeness, lock discipline, zero-alloc
# hot paths) plus staticcheck. Both run here and in the CI lint job;
# neither installs anything into the module.
.PHONY: lint
lint: ccsimlint staticcheck

.PHONY: ccsimlint
ccsimlint:
	$(GO) run $(LDFLAGS) ./cmd/ccsimlint ./...

# staticcheck is pinned and fetched by the Go toolchain at run time, so
# go.mod stays dependency-free. Offline environments (no module proxy)
# skip it with a warning — the CI lint job always runs it for real.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
.PHONY: staticcheck
staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck: $(STATICCHECK) not available (offline?); skipped — the CI lint job runs it"; \
	fi

# test shuffles test order so inter-test state dependencies surface
# locally instead of only under CI's shuffled runs.
.PHONY: test
test:
	$(GO) test -shuffle=on ./...

.PHONY: race
race:
	$(GO) test -race ./internal/sweep ./internal/durable ./internal/experiments ./internal/server ./internal/client ./internal/dispatch ./internal/analysis ./internal/trace
	$(GO) test -race ./internal/sim -run 'TestDifferential'
	$(GO) test -race ./internal/memctrl ./internal/dram
	$(GO) test -race ./internal/cache ./internal/core ./internal/cpu ./internal/prof

# fuzz-smoke runs short coverage-guided fuzz sessions, one per target
# (Go fuzzes one target per run). FuzzReader covers the trace reader
# (malformed lines, huge tokens, truncated files), pinning the
# wrapped-error line attribution the daemon relies on when a 2 GB trace
# has one bad line. FuzzEngines decodes bytes into bounded 1-8 core
# configs and demands bit-identical Results from the event-driven engine
# and the reference stepper, with both command streams protocol-checked.
# FuzzRowKeyRoundTrip demands row keys (how the HCRAC and the refresh
# engine identify rows) round-trip and never collide; the BitSliceMapper
# targets demand Map/Unmap be inverse over the addressable range, and
# that an arbitrary field-order string be rejected or yield a mapper
# that round-trips. Crashers land in each package's testdata/fuzz;
# commit them as regressions.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -fuzz=FuzzReader -fuzztime=20s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzEngines -fuzztime=20s -run '^$$' ./internal/sim
	$(GO) test -fuzz='^FuzzRowKeyRoundTrip$$' -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz='^FuzzBitSliceMapperRoundTrip$$' -fuzztime=10s -run '^$$' ./internal/memctrl
	$(GO) test -fuzz='^FuzzBitSliceMapperOrders$$' -fuzztime=10s -run '^$$' ./internal/memctrl

# gateway-e2e runs the multi-tenant fault-injection suite headlessly
# under the race detector: the 3-tenant / 3-daemon campaign with a peer
# killed mid-flight, auth/429 storms, half-written SSE streams, journal
# corruption, and the job-visibility table over every job-addressed
# route. On failure each test dumps its job journal and a metrics
# snapshot into CCSIMD_FAULT_ARTIFACTS for upload.
CCSIMD_FAULT_ARTIFACTS ?= $(CURDIR)/fault-artifacts
.PHONY: gateway-e2e
gateway-e2e: soak
	CCSIMD_FAULT_ARTIFACTS=$(CCSIMD_FAULT_ARTIFACTS) $(GO) test -race -count=1 \
		-run 'TestFleetFaultCampaign|TestGatewayAuthStorm|TestChaosClientStorms|TestSSETruncationHeals|TestJournalCorruptionRecovery|TestJournalProperty|TestMetricsTenantConcurrency|TestJobVisibilityRoutes' \
		./internal/server

# soak is the self-healing acceptance campaign under the race detector:
# a three-daemon fleet per seed where one peer crashes mid-submission
# and a restarted incarnation rejoins through the circuit breaker, a
# permanent straggler forces hedged execution, and a dead journal disk
# degrades storage to memory-only without failing a single job — with
# byte-identical results across four seeds. The deadline-propagation,
# quarantine, and degraded-storage unit campaigns ride along, as do the
# fronting-daemon campaigns: a peer that sheds or rejects one flight
# keeps its slot, and a peer restarted on the same address rejoins the
# front through its breaker. Failures dump forensics into
# CCSIMD_FAULT_ARTIFACTS.
.PHONY: soak
soak:
	CCSIMD_FAULT_ARTIFACTS=$(CCSIMD_FAULT_ARTIFACTS) $(GO) test -race -count=1 \
		-run 'TestSelfHealingSoak|TestDispatchWorkerRejoinsMidCampaign|TestDispatchHedgesStragglers|TestDispatchPoisonQuarantine' \
		./internal/dispatch
	CCSIMD_FAULT_ARTIFACTS=$(CCSIMD_FAULT_ARTIFACTS) $(GO) test -race -count=1 \
		-run 'TestManagerDeadline|TestSubmitDeadlineHeaderSheds|TestManagerHedgesStragglerPeer|TestManagerPoisonQuarantine|TestManagerStorageDegradedMode|TestFrontPeerShedKeepsSlot|TestFrontPeerRejectionFailsJobKeepsSlot|TestFrontPeerRejoins' \
		./internal/server

# serve runs the simulation daemon locally with the version stamp.
# Override flags with CCSIMD_FLAGS, e.g.
#   make serve CCSIMD_FLAGS="-addr :9000 -workers 4"
CCSIMD_FLAGS ?= -addr :8344 -results ccsimd-results.json
.PHONY: serve
serve:
	$(GO) run $(LDFLAGS) ./cmd/ccsimd $(CCSIMD_FLAGS)

# serve-fleet spins up FLEET_N local daemons on consecutive ports for
# manual fleet testing (each with its own result cache), then waits;
# Ctrl+C stops them all. Point clients at the whole fleet with e.g.
#   ccsim ... -servers localhost:8344,localhost:8345,localhost:8346
# or front it with one dispatcher:
#   ccsimd -addr :9000 -workers -1 -peers localhost:8344,localhost:8345,localhost:8346
FLEET_N ?= 3
FLEET_BASE_PORT ?= 8344
.PHONY: serve-fleet
serve-fleet: build
	@trap 'kill 0' INT TERM; \
	for i in $$(seq 0 $$(( $(FLEET_N) - 1 ))); do \
		port=$$(( $(FLEET_BASE_PORT) + i )); \
		echo "serve-fleet: daemon on :$$port"; \
		$(GO) run $(LDFLAGS) ./cmd/ccsimd -addr :$$port -results ccsimd-results-$$port.json & \
	done; wait

# bench regenerates the evaluation's headline numbers and the sweep
# scaling curve, and runs the controller-scheduling and DRAM-legality
# micro-benchmarks once each so they keep compiling and running. CCSIM_BENCH_SCALE=default selects the paper-sized
# Figure 7a campaign for the worker-scaling benchmark.
.PHONY: bench
bench: bench-simcore
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/sweep ./internal/experiments ./internal/memctrl ./internal/dram

# bench-simcore measures the two execution engines (event-driven vs the
# reference stepper) on the Quick-scale Figure 7a campaign and records
# the numbers in BENCH_simcore.json, so engine-performance history
# accumulates across PRs. The run fails if any workload's event engine
# is slower than the reference stepper (-min-speedup 1.0, the default).
.PHONY: bench-simcore
bench-simcore:
	$(GO) run $(LDFLAGS) ./cmd/benchrecord -out BENCH_simcore.json

# bench-check reruns the campaign without touching the committed file
# and fails on a per-workload speedup below 1x or a >10% aggregate
# configs_per_sec regression against the committed BENCH_simcore.json.
# The zero-alloc gate first proves the perf-analyzer probe hooks stay
# allocation-free on the simulation hot paths, disabled and enabled.
.PHONY: bench-check
bench-check: zero-alloc-check
	$(GO) run $(LDFLAGS) ./cmd/benchrecord -out /tmp/BENCH_simcore.fresh.json -compare BENCH_simcore.json

# zero-alloc-check runs the testing.AllocsPerRun gates for the probe
# hooks at every layer: DRAM command issue, ChargeCache operations, the
# analysis collector's steady state, the phase timer, and the memory
# controller's scheduling walk and address mapping. The same
# functions carry //ccsim:zeroalloc, so `make lint` rejects allocating
# constructs in them at analysis time too.
.PHONY: zero-alloc-check
zero-alloc-check:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/dram ./internal/core ./internal/analysis ./internal/prof ./internal/memctrl

# dashboard-smoke boots a scratch daemon headlessly and checks the
# whole observability surface end to end: the embedded page (and its
# script, via node when available), a phase-profiled run through
# ccsim -server, the analysis report + SSE stream endpoints, and the
# per-worker phase breakdown on /metrics.
.PHONY: dashboard-smoke
dashboard-smoke:
	./scripts/dashboard_smoke.sh

# dashboard opens the daemon's embedded live dashboard (start one with
# `make serve` first).
DASHBOARD_URL ?= http://localhost:8344/dashboard
.PHONY: dashboard
dashboard:
	@echo "dashboard: $(DASHBOARD_URL)"
	@xdg-open $(DASHBOARD_URL) 2>/dev/null || open $(DASHBOARD_URL) 2>/dev/null || \
		echo "dashboard: open $(DASHBOARD_URL) in a browser"

# golden-update deliberately rewrites the experiment-layer regression
# snapshot after an intended change to reproduced paper numbers.
.PHONY: golden-update
golden-update:
	$(GO) test ./internal/experiments -run TestGoldenQuickFig3Fig7 -update

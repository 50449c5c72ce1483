# PolyUFC build and verification targets.

GO ?= go

.PHONY: all build vet test race bench perf-micro experiments faults fuzz fmt cover diet serve smoke pipeline platforms plantable jobs fleet tiling topology

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector gate for the parallel evaluation engine (tier-1 in CI).
race:
	$(GO) test -race ./...

# One benchmark per paper table/figure (test-size inputs; set
# POLYUFC_BENCH_SIZE=bench for evaluation shapes).
bench:
	$(GO) test -bench=. -benchmem

# Micro-benchmarks of the exact-counting back end, layer by layer, at
# bench size with allocation counts: polynomial summation, isl counting,
# PolyUFC-CM per kernel, Pluto dependence analysis. CI runs them at
# PERF_BENCHTIME=1x so they cannot rot; the defaults are for reading.
PERF_BENCHTIME ?= 20x
perf-micro:
	$(GO) test -run '^$$' -bench 'SumVar|Count(Lu|Cholesky|SdpaBert)|Analyze(Lu|Ludcmp|Conv2dWideresnet)|Deps(Lu|Conv2d|Adi)' \
		-benchmem -benchtime $(PERF_BENCHTIME) \
		./internal/poly ./internal/isl ./internal/cachemodel ./internal/pluto

# Regenerate every table and figure at evaluation size.
experiments:
	$(GO) run ./cmd/polyufc-bench -exp all -size bench

# Fault-tolerance gate: injection, cap-controller retry/restore and
# best-effort degradation paths under the race detector.
faults:
	$(GO) test -race ./internal/faults
	$(GO) test -race -run 'Fault|Degrade|CapController|BestEffort|Tolerates|Grid' \
		./internal/hw ./internal/core ./internal/experiments ./internal/search

# Staged-pipeline gate: the stage runner unit suite plus the equivalence
# properties (memo on vs. off byte-identical Results, prefix runs seeding
# full compiles, server stage reuse) under the race detector.
pipeline:
	$(GO) test -race ./internal/pipeline
	$(GO) test -race -run 'Pipeline|Stage|Memo|Prefix|Timings' \
		./internal/core ./internal/server ./internal/parallel ./internal/ir

# Platform-backend gate: schema-validate the embedded and platforms/*.json
# descriptions (round-trip, registry, calibration artifacts), pin their
# content hashes and serialized bytes (TestBackendHashesPinned) and the
# Socket -> Platform field mapping on BDW/RPL, run a JSON-only backend
# end to end, and re-check the golden figures through the registry path.
platforms:
	$(GO) test ./internal/platform
	$(GO) test -run 'Backend|Grid|Clamp|Platform' ./internal/hw ./internal/server ./internal/experiments
	$(GO) test -run 'Golden' ./internal/experiments

# Plan-table gate: the table-vs-search equivalence suite, staleness and
# fractional-grid regressions under the race detector, the pipeline and
# serve-path integration tests, a short deserializer fuzz session, and
# the end-to-end smoke script (kill -9 mid-sweep, journal resume, serve
# boot with /statsz counters — on the fractional-grid backend).
plantable:
	$(GO) test -race ./internal/plantable
	$(GO) test -race -run 'Plan' ./internal/core ./internal/server
	$(GO) test -fuzz FuzzParsePlanTable -fuzztime 5s ./internal/plantable
	sh scripts/plantable_smoke.sh

# Async-job and drift-watchdog gate: the journal-backed job tier and
# leak checker under the race detector, the daemon's job/drift suites,
# then the real binary end to end — SIGKILL mid-job with byte-identical
# resume, and injected calibration drift triggering an automatic re-fit
# visible in /statsz.
jobs:
	$(GO) test -race ./internal/jobs ./internal/leakcheck
	$(GO) test -race -run 'Job|Drift|Refit|Quarantine' ./internal/server ./internal/roofline ./internal/journal
	sh scripts/jobs_smoke.sh

# Fleet-cache gate: the content-addressed store (bit-flip property and
# corruption tests), the peer protocol (breakers, hedging, injected
# faults) and the generalized breaker under the race detector, the
# daemon's fleet/CAS integration suite, a short fuzz session over the
# on-disk entry codec, and the end-to-end smoke script — three peers,
# SIGKILL one mid-fill with zero failed requests, warm-restart cache
# hits, on-disk corruption quarantined, injected peer faults absorbed.
fleet:
	$(GO) test -race ./internal/cas ./internal/fleet ./internal/breaker
	$(GO) test -race -run 'CAS|Fleet|Compact|RetryAfter' ./internal/server ./internal/journal ./internal/jobs
	$(GO) test -fuzz FuzzDecodeEntry -fuzztime 5s ./internal/cas
	sh scripts/fleet_smoke.sh

# Tiling-strategy gate: the strategy layer's unit suite under the race
# detector, the golden equivalence properties (zero-value config
# byte-identical to explicit pluto, distinct strategies never sharing
# memo entries), the per-strategy degrade and auto-skips-errored tests,
# the divergence-witness sweep, and a short fuzz session over the
# strategy-spec parser.
tiling:
	$(GO) test -race ./internal/tiling
	$(GO) test -race -run 'Tiling|DefaultAndExplicitPluto|DistinctStrategies|Auto' \
		./internal/core ./internal/server ./internal/experiments ./internal/plantable
	$(GO) test -fuzz FuzzParseTilingSpec -fuzztime 5s ./internal/tiling

# Topology gate: the platform suite (both document layouts) and
# backend-decoder fuzz session, the schema-1 vs schema-2 spelling
# equivalence properties (constants, compile results, plan tables),
# socket placement and cluster rollups,
# per-socket breaker isolation under the race detector, and the real
# daemon end to end on the 2-socket description (socket-scoped fault,
# only the sick domain's breaker opens).
topology:
	$(GO) test -race ./internal/platform
	$(GO) test -race -run 'Topology|Socket|Cluster|V2Spelling|Rho|NUMA|Remote' \
		./internal/roofline ./internal/model ./internal/hw ./internal/core \
		./internal/server ./internal/plantable ./internal/experiments
	$(GO) test -fuzz FuzzParseBackend -fuzztime 5s ./internal/platform
	sh scripts/topology_smoke.sh

# Run the capping service locally with production-shaped defaults.
serve:
	$(GO) run ./cmd/polyufc-serve -addr 127.0.0.1:8321

# Service-robustness gate: the in-process daemon suite under the race
# detector (admission shedding, breaker degradation, panic isolation,
# drain, journal replay), then the real binaries end to end — concurrent
# requests under injected faults, SIGTERM drain, and a SIGKILLed sweep
# resumed byte-identically.
smoke:
	$(GO) build ./cmd/polyufc-serve
	$(GO) test -race ./internal/server ./internal/journal
	sh scripts/smoke.sh

# Short native fuzz smoke over the affine-kernel parser.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/frontend

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./internal/...

# Design-diet ledger: non-test Go lines per package under internal/ and
# cmd/, largest first, with the total. A simplification PR quotes the
# total before and after.
diet:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); dir = p[1]; for (i = 2; i < n; i++) dir = dir "/" p[i]; loc[dir] += $$1; sum += $$1 } \
		END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d total\n", sum }' | sort -rn

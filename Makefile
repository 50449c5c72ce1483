# PolyUFC build and verification targets.

GO ?= go

.PHONY: all build vet test race bench perf-micro experiments faults fuzz fmt cover diet serve smoke pipeline platforms jobs fleet tiling topology \
	e2e jobs-e2e fleet-e2e tiling-e2e topology-e2e smoke-e2e

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every test in the repository, once, under the race detector: CI's one
# test step. The area gates below add only what it cannot do.
race:
	$(GO) test -race ./...

# One benchmark per paper table/figure (test-size inputs; set
# POLYUFC_BENCH_SIZE=bench for evaluation shapes).
bench:
	$(GO) test -bench=. -benchmem

# Micro-benchmarks, layer by layer, with allocation counts. The
# exact-counting back end at bench size: polynomial summation, isl
# counting, PolyUFC-CM per kernel (MeasureTiled*: the counting half alone,
# on separable tiled domains; Seidel's nine reads are one reference
# group), Pluto dependence analysis. The measured path at test size: one kernel's tiled nests through interp and cachesim
# (ProfileNest*, one per leaf shape, also reporting ns/access), what the
# stage snapshots of one cold compile allocate (CompileSnapshots), the
# in-process shape of the stage-reuse workload — a compile over a cached
# characterize prefix (CompileStageReuse) — and that of the cold-compile
# workload — every kernel x {BDW, RPL} x a tile ladder through one
# bounded stage cache (CompileSweep, also reporting stagehits/op) — and
# the stage-reuse workload through the daemon's real handler, request
# decoding, kernel build and response encoding included (ServeStageReuse).
# CI runs them at PERF_BENCHTIME=1x so they cannot rot; the defaults are
# for reading.
PERF_BENCHTIME ?= 20x
perf-micro:
	$(GO) test -run '^$$' -bench 'SumVar|Count(Lu|Cholesky|SdpaBert)|Analyze(Lu|Ludcmp|Conv2dWideresnet)|MeasureTiled(SdpaBert|3mm|Seidel)|Deps(Lu|Conv2d|Adi)|ProfileNest(LmHead(Llama2|Gpt2)|Conv2d(Wideresnet|Convnext|Alexnet)|Gemm)|CompileSnapshots|CompileStageReuse|CompileSweep|ServeStageReuse|ServeWarmHit' \
		-benchmem -benchtime $(PERF_BENCHTIME) \
		./internal/poly ./internal/isl ./internal/cachemodel ./internal/pluto ./internal/hw ./internal/core ./internal/server

# Regenerate every table and figure at evaluation size.
experiments:
	$(GO) run ./cmd/polyufc-bench -exp all -size bench

# The area gates. `make race` (CI's one test step) already runs every test
# in the repository once, so a gate holds only what that step does not do:
#   <gate>      for local use: `go test -race` over the area's WHOLE
#               packages — no -run pattern, so a renamed test cannot fall
#               out of a gate — then the gate's -e2e half, if it has one;
#   <gate>-e2e  the area's short fuzz session(s) and its smoke script
#               against the real binaries. CI runs `make e2e`: these only.

# Fault tolerance: injection, cap-controller retry/restore and
# best-effort degradation paths.
faults:
	$(GO) test -race ./internal/faults ./internal/hw ./internal/core ./internal/experiments ./internal/search

# Staged pipeline: the stage runner plus the equivalence properties (memo
# on vs. off byte-identical Results, prefix runs seeding full compiles,
# server stage reuse).
pipeline:
	$(GO) test -race ./internal/pipeline ./internal/core ./internal/server ./internal/parallel ./internal/ir

# Platform backends: validation of the embedded and platforms/*.json
# descriptions against the one sockets-only schema (older layouts are
# refused with the conversion hint), pinned content hashes and serialized
# bytes (TestBackendHashesPinned), a JSON-only backend end to end, and the
# golden figures through the registry path.
platforms:
	$(GO) test -race ./internal/platform ./internal/hw ./internal/server ./internal/experiments

# Async jobs and drift watchdog: the journal-backed job tier, the leak
# checker and the daemon's job/drift suites; e2e is the real binary —
# SIGKILL mid-job with byte-identical resume, and injected calibration
# drift triggering an automatic re-fit visible in /statsz.
jobs: jobs-e2e
	$(GO) test -race ./internal/jobs ./internal/leakcheck ./internal/server ./internal/roofline ./internal/journal
jobs-e2e:
	sh scripts/jobs_smoke.sh

# Fleet cache tier: the content-addressed store (bit-flip property and
# corruption tests), the peer protocol (breakers, hedging, injected
# faults), the generalized breaker, and the daemon's ladder/CAS/fleet
# suites; e2e is the on-disk entry codec fuzz session and the smoke
# script — three peers, SIGKILL one mid-fill with zero failed requests,
# warm-restart cache hits, on-disk corruption quarantined, injected peer
# faults absorbed.
fleet: fleet-e2e
	$(GO) test -race ./internal/cas ./internal/fleet ./internal/breaker ./internal/server ./internal/journal ./internal/jobs
fleet-e2e:
	$(GO) test -fuzz FuzzDecodeEntry -fuzztime 5s ./internal/cas
	sh scripts/fleet_smoke.sh

# Tiling strategies: the strategy layer, the golden equivalence
# properties (zero-value config byte-identical to explicit pluto, distinct
# strategies never sharing memo entries), per-strategy degrade and
# auto-skips-errored tests, the divergence-witness sweep; e2e is the
# strategy-spec parser fuzz session.
tiling: tiling-e2e
	$(GO) test -race ./internal/tiling ./internal/core ./internal/server ./internal/experiments
tiling-e2e:
	$(GO) test -fuzz FuzzParseTilingSpec -fuzztime 5s ./internal/tiling

# Topology: the sockets/interconnect/nodes document and its validation,
# socket placement and cluster rollups, per-socket breaker isolation; e2e
# is the backend-decoder fuzz session and the real daemon on the 2-socket
# description (socket-scoped fault, only the sick domain's breaker opens).
topology: topology-e2e
	$(GO) test -race ./internal/platform ./internal/roofline ./internal/model ./internal/hw ./internal/core \
		./internal/server ./internal/experiments
topology-e2e:
	$(GO) test -fuzz FuzzParseBackend -fuzztime 5s ./internal/platform
	sh scripts/topology_smoke.sh

# Service robustness: the in-process daemon suite (admission shedding,
# breaker degradation, panic isolation, drain, journal replay); e2e is
# the real binaries — concurrent requests under injected faults, SIGTERM
# drain, and a SIGKILLed sweep resumed byte-identically.
smoke: smoke-e2e
	$(GO) test -race ./internal/server ./internal/journal
smoke-e2e:
	sh scripts/smoke.sh

# Everything the race step cannot do, once: CI's second half.
e2e: jobs-e2e fleet-e2e tiling-e2e topology-e2e smoke-e2e

# Run the capping service locally with production-shaped defaults.
serve:
	$(GO) run ./cmd/polyufc-serve -addr 127.0.0.1:8321

# Short native fuzz smoke over the affine-kernel parser.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/frontend

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./internal/...

# Design-diet ledger: non-test Go lines per package under internal/ and
# cmd/, largest first, with the total. A simplification PR quotes the
# total before and after, and the guard that keeps it down: `go test -run
# TestNoTestOnlyExports .` (exports_test.go) fails on an exported function
# or method under internal/ that only tests reach, unless its allow-list
# gives the reason it stays.
diet:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); dir = p[1]; for (i = 2; i < n; i++) dir = dir "/" p[i]; loc[dir] += $$1; sum += $$1 } \
		END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d total\n", sum }' | sort -rn

GO ?= go

.PHONY: all build test race test-purego build-arm64 fuzz vet fmt bench bench-smoke serve-smoke chaos doccheck hcbench-check hcbench-pair loc loc-check reach-check profile ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-purego runs the packages that execute internal/erasure's coding paths
# with the assembly kernel compiled out (-tags purego: the table kernel, what
# a host without GFNI runs), under the race detector like `race` beside it,
# so the race suites of erasure and checkpoint see both kernels.
test-purego:
	$(GO) test -race -tags purego ./internal/erasure/ ./internal/checkpoint/ ./internal/hybrid/ ./internal/harness/

# build-arm64 cross-compiles the tree and vets internal/erasure for an
# architecture without the assembly kernel, so gfni_generic.go cannot rot.
build-arm64:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/erasure/

# fuzz gives each parser of outside bytes ten seconds of coverage-guided
# input: the two hcserve request decoders, the one trace-file reader,
# diskstore's record-directory read and checksum frames, and checkpoint restore
# over stores with flipped or truncated shards (go test -fuzz takes one
# target and one package per run) — and the same to four closed forms
# against their oracles: the stencil's node graph (arithmetic on a block
# placement, the symmetric read-back on a strided one) and logged fraction
# against the general folds of its CSR, the CSR's heatmap and grid-CSV
# renderers against the dense cell grid, the reliability product form
# against the enumeration, and the streaming disjoint-span reducer against
# the slab pass it replaced.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeScenario$$' -fuzztime 10s ./pkg/hierclust/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSweep$$' -fuzztime 10s ./pkg/hierclust/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSR$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDir$$' -fuzztime 10s ./internal/diskstore/
	$(GO) test -run '^$$' -fuzz '^FuzzUnframe$$' -fuzztime 10s ./internal/diskstore/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreCorrupted$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzStencilFoldMatchesCSR$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzCSRRendersMatchDense$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzProductFormMatchesEnumeration$$' -fuzztime 10s ./internal/reliability/
	$(GO) test -run '^$$' -fuzz '^FuzzReductionMatchesReference$$' -fuzztime 10s ./internal/reliability/

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt (the CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench records a BENCH_<date>.json snapshot of the full suite
# (BENCH=regexp, BENCHTIME=1s, NOTE="..." to customize).
bench:
	sh scripts/bench.sh

# bench-smoke is the quick CI benchmark: one iteration of the guarded hot
# paths, compared against the latest committed snapshot (the large-scale
# partition/evaluation pipelines — including the million-node
# Partition1M/Scaling1M scale proofs, the eval-128k-shaped Hierarchical128k
# build and Score128k's warm score of it — gate at a noise-tolerant 300%; Fig*,
# RSEncode and CkptCycle deltas print for inspection: the last two run the
# GFNI kernel or the table kernel depending on the host's CPU, 4–13x apart
# on identical code, so no threshold on their time means anything across
# hosts — TestL3CycleAllocationBound keeps CkptCycle's bytes and
# TestL3CycleAllocationCount its object count, per node and per group).
# Benchmarks present on only one side of the comparison are informational, so snapshots
# recorded before the 1M benchmarks existed still gate cleanly, and
# Score128k gates once a snapshot records it. The same
# 300% bounds B/op and allocs/op, which repeat where ns/op does not (an
# increase under 64 KiB or 64 objects never fails: one iteration may build a
# one-time table): both sides run on one P (-cpu 1, as scripts/bench.sh
# records), so neither figure depends on the host's cores.
bench-smoke:
	$(GO) test -run '^$$' -cpu 1 -bench 'RSEncode|CkptCycle|Fig|Partition100k|Partition1M|Scaling256k|Scaling1M|Hierarchical128k|Score128k' -benchmem -benchtime 1x . > smoke.txt
	$(GO) run ./cmd/benchjson < smoke.txt > smoke.json
	baseline=$$(ls BENCH_*.json | sort | tail -1); \
		$(GO) run ./cmd/benchjson -compare -threshold 300 -filter 'Partition100k|Partition1M|Scaling256k|Scaling1M|Hierarchical128k|Score128k' $$baseline smoke.json; \
		rc=$$?; rm -f smoke.txt smoke.json; exit $$rc

# profile captures CPU + heap profiles of the scaling pipeline at 256k
# synthetic ranks (override the run with PROFILE_ARGS="..."). Inspect with:
# go tool pprof cpu.prof
PROFILE_ARGS ?= -exp scaling -maxranks 262144
profile:
	$(GO) run ./cmd/hcrun $(PROFILE_ARGS) -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

# serve-smoke boots hcserve and round-trips the quickstart scenario
# through POST /v1/evaluate, the batch endpoint, and /metrics (the CI
# examples-job check).
serve-smoke:
	sh scripts/hcserve_smoke.sh

# chaos runs the fault-injection and cancellation suites under the race
# detector: degraded disk caches, panic isolation, server deadlines,
# cancellation latency and poll counts (the node fold and partitioner in
# internal/core and internal/graph, the reliability model), goroutine-leak
# assertions, and the kill -9 restart/journal-resume drills (the CI chaos
# job).
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Cancel|Panic|Degrad|Quarantine|Fault|Timeout|Drain|Restart|Journal' \
		./internal/core/ ./internal/diskstore/ ./internal/faultinject/ ./internal/graph/ \
		./internal/reliability/ ./pkg/hierclust/ ./pkg/hierclust/serve/

# doccheck fails if any Go package lacks a package doc comment or a
# repo-relative markdown link in README/ROADMAP/CHANGES/docs dangles.
doccheck:
	sh scripts/doccheck.sh

# hcbench-check vets and tests the nested benchmarks/ module (the gate
# binary behind BENCHMARK.json). No tier-1 command builds it, so an API
# rename in pkg/hierclust would otherwise break it unnoticed.
hcbench-check:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

# hcbench-pair runs the gate benchmark on BASE (a git revision) and on the
# working tree alternately, N times each, and prints per metric both medians,
# both inter-quartile distances, their ratio and the sign count. ARGS go to
# hcbench (e.g. ARGS='-workload sweep-grid -timings'). It gates nothing: it
# is the evidence a timing claim cites on a host where no wall time is gated.
N ?= 10
hcbench-pair:
	@test -n "$(BASE)" || { echo "usage: make hcbench-pair BASE=<rev> [N=10] [ARGS='hcbench flags']"; exit 2; }
	sh scripts/hcbench_pair.sh $(BASE) $(N) $(ARGS)

# loc prints the tracked size number: non-test Go and assembly lines outside
# benchmarks/.
loc:
	@git ls-files '*.go' '*.s' | grep -v '^benchmarks/' | grep -v '_test\.go$$' | xargs cat | wc -l

# loc-check fails when `make loc` exceeds LOC_CEILING, so ROADMAP aim 2's
# tracked number only goes up when a PR raises the ceiling on purpose; a PR
# that shrinks the tree lowers it to its own result.
LOC_CEILING = 17589
loc-check:
	@n=$$($(MAKE) -s loc); if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc $$n exceeds LOC_CEILING $(LOC_CEILING)"; exit 1; fi; \
		echo "loc $$n (ceiling $(LOC_CEILING))"

# reach-check fails for every declaration under internal/ and pkg/ that no
# binary, example (main or Example function), benchmark workload or
# pkg/hierclust/serve export reaches, unless reach_test.go's allowlist names
# the test that needs it as an instrument. It type-checks the tree and the standard
# library from source, so it sits behind a build tag, outside tier-1.
reach-check:
	$(GO) test -tags reach -run TestInternalReachable .

# ci mirrors .github/workflows/ci.yml locally: every target its test, chaos
# and examples jobs run.
ci: fmt vet build build-arm64 test race test-purego fuzz chaos bench-smoke serve-smoke doccheck hcbench-check loc-check reach-check

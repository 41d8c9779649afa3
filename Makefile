# Local workflow mirroring .github/workflows/ci.yml: `make lint test`
# runs exactly what CI's lint and test jobs run.

GO ?= go

.PHONY: all build lint fmt vet simlint analyze sarif bounds bounds-check sanitize perturb test race bench bench-layers fuzz figures trace snapshot simd soak clean

all: lint test build

build:
	$(GO) build ./...

# lint = the CI lint job: formatting gate, go vet, the full analyzer
# suite (floatmerge, globalstate, hotalloc, latbound, maporder,
# nondeterminism, purity, seedderive, tracefmt, unitsafe)
# gated on the checked-in baseline, and the static bounds report gate.
lint: fmt vet analyze bounds-check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

simlint:
	$(GO) run ./cmd/simlint ./...

# analyze = the CI analyzer gate: the full suite module-wide (cmd/
# included), failing only on findings not recorded in
# lint/simlint.baseline — so a new purity or hotalloc finding breaks
# the build while audited history stays quiet — then the merged SARIF
# artifact covering every analyzer.
analyze:
	$(GO) run ./cmd/simlint -baseline lint/simlint.baseline ./...
	$(GO) run ./cmd/simlint -format=sarif ./... > simlint.sarif || true

# sarif mirrors the CI code-scanning artifact.
sarif:
	$(GO) run ./cmd/simlint -format=sarif ./... > simlint.sarif || true

# bounds regenerates the committed static worst-case bounds report
# (lint/bounds.json): every irq-off/lock-held/timer region's latbound
# interval, the input to reprocheck's latbound-envelope claims. Run it
# after changing kernel timing code or region annotations; CI diffs the
# committed copy against a fresh regeneration.
bounds:
	$(GO) run ./cmd/simlint -bounds lint/bounds.json ./...

# bounds-check = the CI bounds gate: the committed report must match
# what the tree produces today, so bound changes are always reviewed.
bounds-check:
	$(GO) run ./cmd/simlint -bounds bounds-ci.json ./...
	diff -u lint/bounds.json bounds-ci.json
	rm -f bounds-ci.json

# sanitize = the CI sanitize job: the whole suite with the engine's
# simsan shadow checker armed (clock monotonicity, heap pop order).
sanitize:
	$(GO) test -tags simsan ./...

# perturb re-runs every figure under seeded permutations of
# same-timestamp tie-breaks; any hash divergence is a tie-break race.
# -bounds arms the latbound-envelope claims against the committed
# static bounds report.
perturb:
	$(GO) run ./cmd/reprocheck -scale 0.15 -perturb 4 -checkinv -bounds lint/bounds.json

test:
	$(GO) test ./...

# race = the CI test job (replication engine fans out goroutines; the
# race detector guards against shared state between replications).
race:
	$(GO) test -race ./...

# bench = the CI bench job's microbenchmark smoke: every testing.B
# body runs once, so they keep building and running; no number is
# gated.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-layers = the CI bench job's per-layer record: a short traced
# figures run of the end-to-end benchmark, every layer probe armed
# (bench/README.md names each metric). The last line is the JSON
# record; the target fails unless it reports "correct": true.
bench-layers:
	bash bench/run.sh --workload figures --trace 1 --seconds 3 | tee bench-layers-ci.txt
	tail -n 1 bench-layers-ci.txt | grep -q '"correct": *true'

# fuzz = the CI fuzz-smoke job, shortened for local runs.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineOps -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDiffQueue$$' -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzPerturbedSchedule$$' -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzSnapshotResume$$' -fuzztime 5s
	$(GO) test ./internal/kernel -run '^$$' -fuzz '^FuzzParseMask$$' -fuzztime 5s
	$(GO) test ./internal/kernel -run '^$$' -fuzz '^FuzzEffectiveAffinity$$' -fuzztime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzAppendSince$$' -fuzztime 5s
	$(GO) test ./internal/trace/attrib -run '^$$' -fuzz '^FuzzAttributeIgnoresUnreadKinds$$' -fuzztime 5s

# figures regenerates the full evaluation artifact directory.
figures:
	$(GO) run ./cmd/rtsim -outdir artifacts

# trace captures a shielded RCIM run with all typed tracepoints armed:
# a Perfetto-loadable Chrome trace (ui.perfetto.dev) and a dmesg-style
# text log.
trace:
	mkdir -p artifacts
	$(GO) run ./cmd/rtsim -trace artifacts/rcim-shielded.json -scale 0.1
	$(GO) run ./cmd/rtsim -trace artifacts/rcim-shielded.txt -scale 0.1

# snapshot = the CI snapshot job, locally: the resume-equivalence and
# bisection tests under the race detector, then the two-stage soak —
# checkpoint the shielded reference machine in one process, restore it
# in another, and require the restored continuation's hash to equal the
# uninterrupted run's, byte for byte across the process boundary.
snapshot:
	$(GO) test -race -count=1 -run 'TestSnapshot|TestResumeDivergence|TestBisect' ./internal/core/ ./internal/kernel/ ./internal/sim/
	mkdir -p artifacts
	$(GO) build -o artifacts/rtsim ./cmd/rtsim
	artifacts/rtsim -checkpoint artifacts/boot.snap -run-for 0
	artifacts/rtsim -checkpoint artifacts/final.snap -run-for 0.03 | tee artifacts/final.txt
	artifacts/rtsim -restore artifacts/boot.snap -run-for 0.03 | tee artifacts/restored.txt
	@want=$$(grep -o 'hash [0-9a-f]*' artifacts/final.txt | awk '{print $$2}'); \
	got=$$(grep -o 'hash [0-9a-f]*' artifacts/restored.txt | awk '{print $$2}'); \
	echo "uninterrupted $$want vs restored $$got"; \
	test -n "$$want" && test "$$want" = "$$got"
	$(GO) run ./cmd/reprocheck -scale 0.1 -bisect

# simd builds and runs the simulation service on :8080 (override with
# ADDR). POST scenarios at /v1/scenarios; see README "Serving mode".
ADDR ?= :8080
simd:
	$(GO) run ./cmd/simd -addr $(ADDR)

# soak = the CI soak job, locally: the simd service under the race
# detector — >1000 concurrent scenario requests, every response
# byte-identical to the serial oracle, duplicates served from the
# content-addressed cache, warm starts hash-equal to cold — then the
# e2e suite against the real binary (random port, disk cache across a
# restart, SIGTERM drain).
soak:
	$(GO) test -race -count=1 -timeout 15m ./internal/simd/
	$(GO) test -count=1 -timeout 10m ./cmd/simd/

clean:
	rm -rf artifacts
	rm -f bounds-ci.json bench-layers-ci.txt simlint.sarif

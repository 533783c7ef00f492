GO ?= go

.PHONY: build fmt test vet lint race bench bench-smoke bench-json results perf-check ci

build:
	$(GO) build ./...

# fmt fails if any Go file differs from gofmt's output, and names it.
fmt:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "gofmt needed on:" $$files >&2; exit 1; }

vet: build
	$(GO) vet ./...

# lint runs simlint, the determinism/unit-safety multichecker (see
# DESIGN.md "Determinism invariants"), and writes its simlint/v1 report —
# surviving findings plus the complete //lint:allow inventory (pass,
# position, reason, used) — to simlint_report.json for the CI artifact.
lint: build
	$(GO) run ./cmd/simlint -json simlint_report.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/sim/

# bench-smoke is the CI benchmark gate: the AllocsPerRun gates on the
# scheduler, message-delivery, and composed NI hot paths, the per-message
# resume and event pins, and the blocked-send flood's per-spin resume,
# event, spin and retry pins, the memory pins (the 256-node machine.New
# footprint, the network frame's size and the cache's lazy tag store),
# then every benchmark for one iteration (an execute-smoke, not a
# measurement), with the output saved to bench_smoke.txt for the CI
# artifact.
bench-smoke: build
	$(GO) test -run 'AllocFree|PerMessage|PerSpin' -count=1 ./internal/sim/ ./internal/proc/ ./internal/netsim/ ./internal/nic/ ./internal/msglayer/
	$(GO) test -run 'Footprint|FrameSize|AbsentPage|OnlyItsPage' -count=1 ./internal/machine/ ./internal/netsim/ ./internal/cache/
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/sim/ | tee bench_smoke.txt

# bench-json regenerates BENCH_results.json: the whole evaluation grid run
# through the sweep orchestrator as one machine-readable report, with a
# serial baseline for the canonical-JSON determinism check and the
# recorded parallel speedup (see EXPERIMENTS.md "Running the evaluation").
bench-json: build
	$(GO) run ./cmd/nisim benchdump -quick -baseline -timeout 300s

# results regenerates the two other committed nisim-sweep/v1 reports, each
# with -baseline: the rerun on one worker and one engine shard must produce
# a byte-identical canonical report, so the chaos grid's worker-count
# identity and the 64-node scalebig grid's shard-count identity are gated
# at full size, and the measured speedups land in the timing sidecars.
results: build
	$(GO) run ./cmd/nisim chaos -quick -baseline -json chaos_results.json
	$(GO) run ./cmd/nisim scalebig -sizes 64 -scale 0.2 -shards 4 -jobs 1 -baseline -json scale_results.json

# perf-check runs perfbench's own tests (the benchmark compiles against
# the simulator's internal packages, and nothing else builds it), then
# each perfbench workload once, briefly and untraced, and fails unless its
# last line reports "correct":true, i.e. every cell matched
# perfbench/reference. It gates the benchmark's correctness, not its
# wall-clock (perfbench itself exits 0 even when a cell is wrong).
# -mod=mod and perfbench/run.sh rewrite perfbench/go.mod, so the file is
# saved before and restored after.
perf-check:
	@mkdir -p .bench_build && cp perfbench/go.mod .bench_build/go.mod.saved
	@status=0; (cd perfbench && GOFLAGS=-mod=mod $(GO) test .) || status=1; \
	for w in pingpong apps16 overload scale256; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "perf-check: $$w is not correct" >&2; status=1 ;; esac; \
	done; \
	cp .bench_build/go.mod.saved perfbench/go.mod; exit $$status

# ci is the full verification gate: compile everything, check gofmt, vet,
# enforce the determinism invariants (all seven simlint passes plus the
# stale-escape check), and run the test suite under the race detector,
# which includes TestGridIdentity: every registered grid at jobs=1 vs
# jobs=8 and, for sharded grids, shards=1 vs shards=4.
ci: build fmt vet lint race

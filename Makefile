# Development targets. `make check` is the full local gate:
# vet + build + tests + race detector over the concurrency-sensitive
# packages (the server middleware/limiter, the retrying client, traces).

GO ?= go

.PHONY: build test vet race bench-smoke trace-smoke obs-smoke expr-smoke self-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector over the packages that exercise concurrency: the
# server's limiter/timeout/shutdown paths, the retrying client, the
# metrics registry, the trace machinery probed by the fuzz-derived
# robustness tests, the sharded severity kernels in internal/core, and
# the experiment store's fault-injection suite, and the generic LRU cache
# with its singleflight (internal/lru), and the self-telemetry snapshot
# loop (internal/selfcube). The wide-event suites
# (concurrent kernel-shard emission, the event ring, the SLO bucket
# ring) live in these same packages and ride along.
race:
	$(GO) test -race ./internal/server/... ./internal/trace/... ./client/... ./internal/obs/... ./internal/core/... ./internal/store/... ./internal/expr/... ./internal/lru/... ./internal/selfcube/...

# Quick sanity run: only the large 64x512x64 operator benchmarks, one
# iteration each. (CI runs every benchmark once instead.)
bench-smoke:
	$(GO) test -run='^$$' -bench='_64x512x64' -benchmem -benchtime=1x .

# End-to-end tracing smoke: generate two experiments, diff them with
# -trace, and assert the export is valid Chrome trace-event JSON carrying
# the operator span taxonomy (the same checks as TestCLITraceExport, but
# via the installed binaries — suitable for CI on a built tree).
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp ./cmd/cube-gen ./cmd/cube-diff && \
	$$tmp/cube-gen -app pescan -barriers -seed 1 -o $$tmp/before.cube && \
	$$tmp/cube-gen -app pescan -seed 9 -o $$tmp/after.cube && \
	$$tmp/cube-diff -trace $$tmp/trace.json -o $$tmp/diff.cube $$tmp/before.cube $$tmp/after.cube && \
	$(GO) run ./internal/cli/tracecheck $$tmp/trace.json && \
	echo trace-smoke: ok

# End-to-end observability smoke: an in-process server with the debug
# gate, a store, and SLO objectives; inline + digest + failing traffic;
# then every /debug/events NDJSON line is schema-checked, the
# one-event-per-request invariant is counted, and /debug/slo burn rates
# are recomputed from their own counters. See internal/cli/obssmoke.
obs-smoke:
	$(GO) run ./internal/cli/obssmoke

# End-to-end expression-engine smoke: an in-process server + store,
# nested DAGs with shared subexpressions via the typed client, asserting
# cube_expr_cse_hits_total > 0, exactly one run of the shared operator,
# and a pure result-cache hit on replay. See internal/cli/exprsmoke.
expr-smoke:
	$(GO) run ./internal/cli/exprsmoke

# End-to-end self-telemetry smoke: an in-process server + store takes
# two snapshots of itself around a burst of operator traffic, the
# snapshots parse back as schema-valid CUBE XML, and the server-side
# Difference of the two runs localizes the burst in the request and
# operator counters. See internal/cli/selfsmoke.
self-smoke:
	$(GO) run ./internal/cli/selfsmoke

check: vet build test race

GO ?= go

.PHONY: all build test race vet cover bench bench-json bench-figures campaign-smoke trace-smoke store-smoke l4-smoke explore-smoke telemetry-smoke fleet-smoke check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Vet, then fail if any Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# Per-package statement coverage, lowest first, with the module-wide
# figure last. Advisory: low coverage is a signal, not a gate.
cover:
	$(GO) test -count=1 -cover -coverprofile=cover.out ./... \
		| grep -E 'coverage: [0-9.]+% of statements' \
		| sed -E 's/^ok +([^ ]+).*coverage: ([0-9.]+)%.*/\2%  \1/' \
		| sort -n
	@echo "total: $$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{print $$3}')"
	@rm -f cover.out

# Before/after micro-benchmarks for the hot paths (matcher, store, HTTP
# proxy, L4 relay) plus the sharded-vs-single store pairs.
BENCH_PATTERN = 'MatcherDecide|StoreSelect|ProxyThroughput|ShardedStore|Relay'

bench:
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchtime 0.5s .

# The same hot-path benchmarks, parsed into a JSON snapshot so runs can be
# diffed across PRs. Each run writes BENCH_<N+1>.json, N being the highest
# existing snapshot, and never overwrites an earlier one.
bench-json:
	@n=$$(ls BENCH_*.json 2>/dev/null | sed -E 's/^BENCH_([0-9]+)\.json$$/\1/' | sort -n | tail -n 1); \
	out=BENCH_$$(( $${n:-0} + 1 )).json; \
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchtime 0.5s . > $$out.txt || { cat $$out.txt; rm -f $$out.txt; exit 1; }; \
	$(GO) run ./internal/tools/benchjson < $$out.txt > $$out && rm -f $$out.txt && echo "wrote $$out"

# The paper's full evaluation series (Tables 1-3, Figures 5-8).
bench-figures:
	$(GO) run ./cmd/gremlin-bench

# A complete fault-space campaign on an in-process 7-service tree:
# enumeration, parallel isolated runs, signature pruning, scorecard.
campaign-smoke:
	$(GO) run ./examples/campaign

# End-to-end causal-tracing smoke: spans propagate through live agents,
# the waterfall's critical path crosses a 100ms-delayed edge, and the
# inflation is attributed to the injected rule. Exits non-zero otherwise.
trace-smoke:
	$(GO) run ./examples/tracing

# Crash-recovery smoke: a real gremlin-logstore process is SIGKILLed
# mid-stream; the restart must replay every acknowledged record
# byte-exact, and compaction must reclaim cleared namespaces' WAL space.
store-smoke:
	$(GO) run ./examples/storecrash

# Stream-plane smoke: faults on a raw TCP edge, observed from the client
# side. A campaign enumerates the stream grid over a protocol:tcp edge,
# a mid-stream sever and a bandwidth throttle are felt by a live client,
# and the relay's conn records attribute every fault. Exits non-zero on
# any mismatch.
l4-smoke:
	$(GO) run ./examples/l4

# Coverage-guided search smoke: the explorer must discover the fallback
# branch that never executes fault-free, exercise it with the revealing
# aborts replayed as prerequisites, prune EI-equivalent duplicates, and
# resume a killed session from the journal without re-running completed
# points. Self-verifying; exits non-zero on any missed claim.
explore-smoke:
	$(GO) run ./examples/explore

# Telemetry-plane smoke: an out-of-band scraper over a live fleet, a
# 150ms delay unit whose fault-window p99 must land strictly above
# baseline with a finite recovery time, a scrape-only quiet period that
# must add zero event-log records, journal round-trip into the
# scorecard's Telemetry section, and a gremlin-top frame over the live
# fleet. Self-verifying; exits non-zero on any missed claim.
telemetry-smoke:
	$(GO) run ./examples/telemetry

# Dynamic-fleet smoke: a generated 100-service multi-replica fleet under
# a lease-based registry and open-loop Poisson load. A killed replica
# must produce a visible error window, be drained from every dependent's
# load-balancer pool by active health checks (with the registry marking
# it down), and the error ratio must recover; a short-TTL ghost instance
# must be targeted by the discovery-triggered reconciler while alive and
# dropped once its lease lapses. Self-verifying; exits non-zero on any
# missed claim.
fleet-smoke:
	$(GO) run ./examples/fleet

check: build vet test race

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet doclint linkcheck fuzz-smoke bench-smoke bench-gate check bench bench-json bench-diff clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full suite under the race detector — including the chaos tests
# (joiner/router crashes, broker restart, replica leader failover),
# which only skip in -short mode.
race:
	$(GO) test -race ./...

# Documentation gates: every internal/ package needs a package doc
# comment (checkpoint/core/migrate/router/sketch additionally document
# every exported symbol), and every relative markdown link must resolve.
doclint:
	$(GO) run ./tools/doclint

linkcheck:
	$(GO) run ./tools/linkcheck

# Short fuzz passes over the parsers that face untrusted bytes: broker
# topic patterns, journal segment records, replication frames, brokerd
# client requests, tuple codecs, protocol envelopes. Ten seconds each is
# enough to catch decoder regressions without stalling the gate; run
# `go test -fuzz <target> -fuzztime 10m <pkg>` for a real campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTopicMatch$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRecord$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzReplFrame$$' -fuzztime $(FUZZTIME) ./internal/broker/replica
	$(GO) test -run '^$$' -fuzz '^FuzzServerFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalPair$$' -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalEnvelope$$' -fuzztime $(FUZZTIME) ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime $(FUZZTIME) ./internal/checkpoint

# One-iteration benchmark smoke so the bench harnesses can't bit-rot:
# compiles and runs every benchmark exactly once. The root package is
# scoped to the ingest benches because the Figure 20/21 replays take
# tens of seconds even for a single iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineIngest' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Perf-regression gate against the checked-in baseline snapshot: short
# amortized runs of the ingest benches, converted with benchjson and
# diffed with benchdiff. One-iteration smoke numbers are setup-dominated
# and useless to diff, so this runs 0.3s per bench instead; that keeps
# allocs/op exact (the gate that matters) while ns/op stays noisy on
# shared CI runners, hence the deliberately loose 75% time limit.
BENCH_BASELINE ?= BENCH_20260809.json
bench-gate:
	$(GO) test -run '^$$' -bench 'EngineIngest' -benchmem -benchtime 0.3s . | $(GO) run ./tools/benchjson > BENCH_ci.json
	$(GO) run ./tools/benchdiff -max-ns-regression 75 $(BENCH_BASELINE) BENCH_ci.json && rm -f BENCH_ci.json

# The gate new changes must pass before merging.
check: vet build race doclint linkcheck fuzz-smoke bench-smoke

# Quick throughput benches (the full experiment suite takes minutes;
# see EXPERIMENTS.md for `bistream exp all`).
bench:
	$(GO) test -bench 'EngineIngest' -benchmem .

# Machine-readable bench snapshot: raw `go test -bench` text converted
# to a JSON array of {name, runs, ns_per_op, ...} records, written to
# BENCH_<date>.json for diffing across commits.
bench-json:
	$(GO) test -bench 'EngineIngest' -benchmem . | $(GO) run ./tools/benchjson > BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# Regression gate between two bench-json snapshots: fails on >15% ns/op
# or >10 allocs/op growth on any benchmark present in both. Override
# the files to diff arbitrary snapshots:
#
#	make bench-diff BENCH_OLD=BENCH_20260806.json BENCH_NEW=BENCH_20260809.json
BENCH_OLD ?= $(firstword $(shell ls -1 BENCH_*.json 2>/dev/null))
BENCH_NEW ?= $(lastword $(shell ls -1 BENCH_*.json 2>/dev/null))
bench-diff:
	$(GO) run ./tools/benchdiff $(BENCH_OLD) $(BENCH_NEW)

clean:
	$(GO) clean ./...

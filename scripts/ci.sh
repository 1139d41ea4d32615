#!/usr/bin/env bash
# ci.sh — the full tier-1 gate in one command:
#
#   ./scripts/ci.sh
#
# vet + build (including the stored daemon) + tests, the nested perfbench
# module (which `go test ./...` does not reach), a race-detector pass over
# the concurrency-heavy packages (the simulator's block fan-out, the
# store's journal/lease/GC machinery, the fleet's cross-process claim
# loop, and the storenet daemon/client), and the benchmark smoke that
# records the performance trajectory in BENCH_campaign.json.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go build cmd/stored =="
go build -o /dev/null ./cmd/stored

echo "== go test =="
go test ./...

echo "== perfbench module (vet + short tests) =="
# perfbench is its own module, so the root's ./... skips it; vetting and
# testing it here catches simulator or runner API changes that would
# break the repository benchmark.
(cd perfbench && go vet ./... && go test -short ./...)

echo "== gofmt (internal/obs, internal/sim) =="
# The tracing layer and the simulator hold the two hot paths (spans and
# the per-iteration loop); hold them to gofmt-clean so drive-by edits
# can't land unformatted.
unformatted=$(gofmt -l internal/obs internal/sim)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./internal/obs/... ./internal/sim/...

echo "== go test -race (store, fleet, storenet) =="
go test -race ./internal/obs/... ./internal/store/... ./internal/fleet/... ./internal/storenet/... ./cmd/stored/...

echo "== go test -race (simulator block fan-out) =="
# Synchronize runs a kernel's SM blocks on several goroutines and must
# stay bit-identical to one; the golden pins, the parallel-sweep identity
# test and the sink equivalence tests all drive that fan-out. The walker
# and ziggurat tests pin the per-iteration fast paths to integrate and
# math/rand/v2.
go test -race -count 2 ./internal/sim/gpu
go test -race -count 2 \
	-run 'TestGolden|TestRunIdenticalAcrossParallelism|TestStreamStatsMatchesMaterialised|TestTailSinkMatchesMaterialised|TestWalkerMatchesIntegrate|TestNormalMatchesMathRandV2' \
	./internal/core ./internal/sim/gpu ./internal/sim/clock

echo "== go test -race (cross-process sweep partition) =="
# Exactly-once across processes rests on atomic lease publication; ten
# repetitions under the race detector catch a reopened torn-read window.
go test -race -count 10 -run 'TestCrossProcessSweepPartition$' ./cmd/experiments

echo "== go test -race (trace propagation) =="
# The tracer is lock-free by design (atomic ring cursor, pooled spans);
# the propagation tests drive it from every worker goroutine of a
# sweep at once, plus the daemon's request-ring recorder.
go test -race -count 2 \
	-run 'TestSweepTraceTreeCoversEveryShard|TestSweepInstallsAndClearsTraceContext|TestUntracedSweepCollectsTimings' \
	./internal/fleet
go test -race -count 2 -run 'TestConcurrentSpans' ./internal/obs
go test -race -run 'TestDaemonDebugEndpoints' ./cmd/stored

echo "== go test -race (breaker + degraded-mode reconciler) =="
go test -race -count 2 \
	-run 'TestBreaker|TestDeferredPutReconciles|TestJournalSurvivesProcessRestart|TestBackgroundReconcileOnRecovery|TestSweepSurvivesStoredOutage' \
	./internal/storenet
# A success from an attempt admitted before the breaker opened once
# closed it and started a background replay mid-outage; fifty runs
# catch that interleaving again if it returns.
go test -race -count 50 -run 'TestSweepSurvivesStoredOutage$' ./internal/storenet
go test -race -count 2 -run 'TestSweepDegrade|TestSweepAutoPolicy|TestResolvePolicy' ./internal/fleet
# The router defers to the same local tier and journal (store.Tier) as
# the client; its outage, restart, recovery and refusal cases race here
# too, and so do both CLI outage stories (one URL, a URL list).
go test -race -count 2 -run 'TestRouterDegraded|TestCorruptMemberReadCounts' ./internal/storenet/router
go test -race -count 2 -run 'TestDegradedRunThenReconcile|TestStoreURLListDegradedThenReconcile' ./cmd/experiments

echo "== go test -race (v3 compatibility pin + legacy blobs are misses) =="
# The pin decodes v3 blobs an earlier encoder wrote (testdata/*.v3) and
# checks a fresh encode reproduces their bodies; retired v1/v2 blobs
# must read as Corrupt misses that a re-Put replaces with v3.
go test -race -run 'TestV3CompatibilityPin|TestLegacyBlobHealsToV3|TestMixedStoreRebuild|TestCorruptBlobIsMissAndHeals' \
	-count 2 ./internal/store

echo "== go test -race (backend conformance + auth) =="
go test -race -count 2 \
	-run 'TestBackendConformance|TestParseTokens|TestAuthScopeEnforcement|TestClientAuthTerminal|TestClient429IsPlainRefusal|TestAuthedProbesWhileDrainingAndThrottled' \
	./internal/store ./internal/storenet
go test -race -run 'TestDaemonAuthTokens|TestDaemonTLS|TestDaemonProbesSurviveAuthAndDrain|TestDaemonTokenReloadOnSIGHUP' ./cmd/stored

echo "== go test -race (replicated router + token validity) =="
# The router package races in full: ring placement, failover reads,
# read-repair, the background scrubber, the three conformance harnesses
# and the mid-sweep member-kill chaos test all exercise the same shared
# counters from many goroutines. Token validity windows race the
# SIGHUP rotation path.
go test -race -count 2 ./internal/storenet/router
go test -race -count 2 -run 'TestParseTokensValidityWindows|TestTokenValidityWindow401' ./internal/storenet
go test -race -run 'TestDaemonTokenExpiry' ./cmd/stored

echo "== go test -race (stored load, reduced concurrency) =="
STORED_LOAD_CLIENTS=25 go test -race -run 'TestStoredLoadConcurrent$' ./internal/storenet

echo "== fuzz smoke (blob codec) =="
# One target per invocation (go test's -fuzz constraint); a few seconds
# each is a smoke over the seeded corpus plus whatever the engine grows,
# not a soak — the corpus seeds alone cover the retired v1/v2 containers
# (which must be rejected), truncation, torn binary sections, bit flips
# and the inflation rail.
go test -run '^$' -fuzz 'FuzzDecodeBlob$' -fuzztime 5s ./internal/store

echo "== blob codec benchmarks =="
go test -run '^$' -bench 'BenchmarkBlob' -benchtime 20x -benchmem ./internal/store

echo "== bench smoke =="
./scripts/bench_smoke.sh

echo "ci: all green"

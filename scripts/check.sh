#!/bin/sh
# check.sh — the repository's full verification gate: static analysis,
# the complete test suite, and the race detector over the concurrent
# engine (the sharded monitor runs one goroutine per shard from two
# shards up, and at one shard applies on whichever goroutine feeds it
# while others use the admin surface, so -race on internal/core is the
# check that matters most after touching it; -race on internal/obs
# covers the shared violation log, spans finished from many shards, and
# HTTP readers paging the SLO engine's log while its tick records; -race
# on internal/daemon covers scrapes and the history tick reading
# read-through series while the engine they read runs and changes its set).
#
# Usage: ./scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# staticcheck is advisory locally (skipped when not installed); CI
# installs a pinned version so the gate is enforced there.
if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ./..."
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping (CI runs it)"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/core/... ./internal/backend/... ./internal/integration/... ./internal/federation/... ./internal/collector/... ./internal/exporter/... ./internal/wire/... ./internal/sim/... ./internal/obs/... ./internal/daemon/..."
go test -race ./internal/core/... ./internal/backend/... ./internal/integration/... ./internal/federation/... ./internal/collector/... ./internal/exporter/... ./internal/wire/... ./internal/sim/... ./internal/obs/... ./internal/daemon/...

# The exporter's idle seal shares its sender-idle flag between Publish,
# the send loop and the ack reader, and races parked seals for queue
# room: ten -race runs of its tests and of the sequence-order regression
# give the interleavings a chance to show.
echo "==> go test -race -count=10 (idle seal vs. parked seals)"
go test -race -count=10 -run 'TestIdleSenderShipsLoneEvent|TestCutLinkShipsOnReconnect|TestIdleSealBridgesBurstEnd|TestBusySenderStillBatches|TestAckWakesIdleSender' ./internal/exporter/
go test -race -count=10 -run 'TestBlockedSealsKeepSequenceOrder' ./internal/collector/

# A pushed config reaches its handler through one apply goroutine per
# kind and route, the router's lock alone keeps an older property set
# from landing after a newer one pushed by another member, and an engine
# takes a set in one step, so no event fed meanwhile is judged by a mix.
echo "==> go test -race -count=10 (pushed-config ordering)"
go test -race -count=10 -run 'TestConfigAppliesSerializedPerKind' ./internal/exporter/
go test -race -count=10 -run 'TestRouterPropertySetNeverRegresses|TestApplyNeverMixesSets' ./internal/federation/

# Examples: each must run to a zero exit, and examples/backends (Table 2
# live: every approach on one violating stream) must print its golden.
echo "==> examples"
for d in examples/*/; do
  go run "./$d" > /dev/null || { echo "example $d failed"; exit 1; }
done
go run ./examples/backends | diff -u examples/backends/testdata/output.golden - ||
  { echo "examples/backends output differs from its golden"; exit 1; }

# Telemetry overhead gate: recording on the hot path must stay
# allocation-free, with and without a registry attached. These run
# -count=1 so a cached pass can't mask a regression. (The allocation
# gates skip themselves under -race, where the detector allocates; this
# block is where they are enforced.)
echo "==> zero-alloc telemetry gates"
go test -count=1 -run 'TestHotPathZeroAlloc' ./internal/obs/
go test -count=1 -run 'TestUnsampledPathZeroAlloc|TestFinishSampledZeroAlloc' ./internal/obs/tracer/
go test -count=1 -run 'TestSteadyStateAllocationBudget|TestHashOperandSteadyStateZeroAlloc|TestReportAllocationBudget' ./internal/core/
# ... and must stay off the wall clock: TestEngineWrittenOnce pins
# time.Now/time.Since in internal/core to the one function Monitor.apply
# reaches only when its sampling countdown runs out.
go test -count=1 -run 'TestEngineWrittenOnce' ./internal/doccheck/
# The switch-is-the-monitor path: firewall app plus the three firewall
# properties, per injected packet (Inject copies only on rewrite).
go test -count=1 -run 'TestPuntPathZeroAlloc' ./internal/apps/
# The packet codec both ways: encode into a warm buffer, and decode
# of the same frame shape through a reused arena.
go test -count=1 -run 'TestAppendEncodeZeroAlloc|TestArenaDecodeZeroAllocSteadyState' ./internal/packet/

# Telemetry budget gate: the steady-state event with the full registry
# attached against the same event with none (BenchmarkE11TelemetryOverhead),
# as a ratio so the gate does not care how fast the box is. Five
# interleaved runs at -cpu 1, best of each side. ROADMAP's target is 8 %;
# 12 % is what two shared vCPUs can resolve run to run, so that is the
# limit here (the per-event clock pair this replaced sat at 1.3-1.7).
echo "==> telemetry budget gate (E11 telemetry on / off <= 1.12)"
for i in 1 2 3 4 5; do
  go test -run '^$' -bench 'BenchmarkE11TelemetryOverhead' -benchtime 0.5s -count 1 -cpu 1 .
done | awk '
  /metrics=false/ { if (!off || $3 < off) off = $3 }
  /metrics=true/ { if (!on || $3 < on) on = $3 }
  END {
    if (!off || !on) { print "telemetry budget gate: no benchmark rows"; exit 1 }
    printf "telemetry on %.1f ns/event, off %.1f ns/event, ratio %.3f\n", on, off, on / off
    if (on / off > 1.12) { print "telemetry budget gate: ratio above 1.12"; exit 1 }
  }'

# Sampler gate (E19): a steady-state metrics-history sample tick
# (counters, gauges, and histogram quantile derivation) must not
# allocate — the self-monitoring tier rides the same overhead
# discipline as the hot path it watches.
echo "==> zero-alloc metrics-history sampler gate"
go test -count=1 -run 'TestSamplerTickZeroAlloc' ./internal/obs/histdb/
go test -count=1 -run 'TestEvaluateSteadyStateZeroAlloc' ./internal/obs/slo/

# State-accounting and churn gate (E16): the per-property state
# observatory — live/bytes/timer accounting plus the heavy-hitter sketch —
# must stay allocation-free on the steady state, and instance churn
# (open -> window expiry -> reopen, request -> reply discharge) must
# allocate nothing at all, with accounting on or off.
echo "==> zero-alloc state-accounting and churn gate"
go test -count=1 -run 'TestStateAccountingZeroAlloc' ./internal/core/

# Zero-copy ingest gate: moving one event from wire bytes into the
# sharded engine (pooled decode, borrowed SubmitBatch, shard dispatch)
# must stay allocation-free in steady state — through the router and
# queues of a four-shard engine, and run to completion on the reader's
# goroutine at one shard, where the arena must also be back in its pool
# when SubmitBatch returns.
echo "==> zero-alloc collector ingest gate (4 shards: router + queues)"
go test -count=1 -run 'TestCollectorIngestZeroAlloc/shards=4' ./internal/collector/
echo "==> zero-alloc collector ingest gate (1 shard: run to completion)"
go test -count=1 -run 'TestCollectorIngestZeroAlloc/shards=1' ./internal/collector/

# Codec fuzz smoke: a few seconds of coverage-guided input on the packet
# codec's decode/encode fixed point. Real fuzzing budgets come from
# running `go test -fuzz` by hand; this just keeps the target healthy.
echo "==> packet codec fuzz smoke (10s)"
go test -fuzz FuzzCodecRoundTrip -fuzztime 10s -run '^$' ./internal/packet/

# Same discipline for the monitoring fabric's wire codec: strict decode
# and canonical re-encode must stay a fixed point for any input.
echo "==> wire codec fuzz smoke (10s)"
go test -fuzz FuzzWireRoundTrip -fuzztime 10s -run '^$' ./internal/wire/

# And for the v2 trace block: batches carrying span marks must decode
# and canonically re-encode for any input, without disturbing v1 frames.
echo "==> trace block fuzz smoke (10s)"
go test -fuzz FuzzTraceBlockRoundTrip -fuzztime 10s -run '^$' ./internal/wire/

# And for the trace-file reader: a trace file is the link's own bytes (the
# recording Hello, then untraced batches contiguous from seq 1), and any
# file ReadAll accepts must survive WriteAll then ReadAll with its events
# unchanged, and no input panics.
echo "==> trace file fuzz smoke (10s)"
go test -fuzz FuzzTraceRoundTrip -fuzztime 10s -run '^$' ./internal/trace/

# And for the member's PUT /fleet/properties body: no body panics it,
# only a parseable document with members every router takes answers 2xx
# and a refused one pushes nothing, the applied set is then that
# document, members it names are relayed as one fleet config that
# survives the wire unchanged, and a stale epoch changes nothing.
echo "==> property-set document fuzz smoke (10s)"
go test -fuzz FuzzPropertySetDoc -fuzztime 10s -run '^$' ./internal/federation/

# And for the -slo rule grammar: any rule ParseRule accepts has a finite
# threshold and re-parses from its flag rendering to the same rule.
echo "==> slo rule fuzz smoke (10s)"
go test -fuzz FuzzParseRule -fuzztime 10s -run '^$' ./internal/obs/slo/

# And for the -fault grammar: any spec ParseSpec accepts prints, through
# String, to a spec that parses back to the same value.
echo "==> fault spec fuzz smoke (10s)"
go test -fuzz FuzzParseSpec -fuzztime 10s -run '^$' ./internal/fault/

# And for the -tenant-quotas grammar: any spec ParseTenantQuotas accepts
# names each tenant once, trimmed and non-empty, with non-negative
# quotas, and its canonical rendering parses back to the same map.
echo "==> tenant quota fuzz smoke (10s)"
go test -fuzz FuzzParseTenantQuotas -fuzztime 10s -run '^$' ./internal/core/

# And for the property language: no input panics the parser, and any
# text ParseAll accepts formats to text that parses to the same ASTs and
# formats identically.
echo "==> property language fuzz smoke (10s)"
go test -fuzz FuzzParse -fuzztime 10s -run '^$' ./internal/property/

# And for the /properties POST body, through the one lifecycle handler
# into a live monitor: no body panics it, and it answers 201 exactly
# when every property the body parses to is installed, 400 otherwise.
echo "==> properties body fuzz smoke (10s)"
go test -fuzz FuzzPropertiesBody -fuzztime 10s -run '^$' ./internal/daemon/

# Introspection-surface smoke: start a real collector, a switchmon with
# the full observability surface on exporting to it, and a fleetagg over
# it; hit every endpoint each serves, failing on any non-200 or malformed
# body; then SIGTERM each and require exit 0 within -drain-timeout.
# Catches wiring regressions (a flag that stops reaching the mux, an
# endpoint panicking on a live engine, a shutdown that hangs) that unit
# tests against hand-built MuxConfigs cannot.
echo "==> endpoint smoke (live switchmon + collector + fleetagg, every endpoint, clean SIGTERM exit)"
go run ./scripts/endpointsmoke

echo "OK"

#!/usr/bin/env bash
# CI smoke: build Release, ASan+UBSan and ThreadSanitizer configurations and
# run the test suite under them. The ASan+UBSan configuration runs the whole
# ctest suite (paper goldens included): the checker must have no host-level
# undefined behaviour, whatever the config values it replays. The TSan
# configuration exists specifically to catch
# data races in the one replay scheduler (ThreadPool::ShardRange callers
# sharing a pool, whole key-sets per worker in RunAll and ReplayExternal)
# and in the spex::Session embedding contract (concurrent checks, batches
# and campaigns on one shared Session, persistent snapshot cache across
# repeated campaigns), so it always runs those tests even in quick mode.
#
# Usage:
#   scripts/smoke.sh          # full: Release ctest + ASan/UBSan ctest + TSan tests
#   scripts/smoke.sh --quick  # Release campaign/interp/session/store tests, ASan/UBSan
#                             # interp/inject/store/lowering/parser-harness tests,
#                             # TSan tests
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

echo "== Release configuration =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
if [[ "${QUICK}" == "1" ]]; then
  ctest --test-dir build-release --output-on-failure -R 'thread_pool_test|inject_test|interp_test|session_test|dynamic_check_test|batch_check_test|matrix_check_test|cancel_test|serve_test|serve_concurrency_test|verdict_store_test|config_set_test|parser_robustness_test'
else
  ctest --test-dir build-release --output-on-failure -j "${JOBS}"
fi

echo "== AddressSanitizer + UndefinedBehaviorSanitizer configuration =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "${JOBS}"
if [[ "${QUICK}" == "1" ]]; then
  ctest --test-dir build-asan --output-on-failure -R 'interp_test|inject_test|verdict_store_test|ir_lowering_test|parser_robustness_test'
else
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
fi

echo "== ThreadSanitizer configuration =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPEX_BUILD_BENCHES=OFF \
  -DSPEX_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}" --target thread_pool_test inject_test interp_test corpus_test session_test dynamic_check_test batch_check_test matrix_check_test cancel_test serve_test serve_concurrency_test verdict_store_test config_set_test parser_robustness_test
# Two callers sharing one pool: each ShardRange call waits on its own latch.
./build-tsan/thread_pool_test
# The parallel-campaign and snapshot-replay determinism tests are the point
# of the TSan build: 4 workers over shared module/SUT state plus the
# state-gated shared snapshot cache, results and cache counters equal to
# the serial run's.
./build-tsan/inject_test --gtest_filter='CampaignParallelTest.*:CampaignTest.*:CampaignSnapshotTest.*'
./build-tsan/interp_test
# The golden corpus run: Session::RunCorpusCampaigns loads all 7 targets
# concurrently (synthesize/parse/lower/infer outside the session lock) and
# runs their campaigns on the session pool; every run must match the golden.
./build-tsan/corpus_test --gtest_filter='CorpusGoldenTest.*'
# Session façade under TSan: four threads load targets on one Session
# (ConcurrentLoadsMatchSerialLoads), threads sharing one Session run
# CheckConfig concurrently (static *and* dynamic mode — the latter replays
# through the shared snapshot cache, concurrently with a campaign), a
# sharded batch and a parallel campaign share the session pool at the
# same time, parallel campaigns stream through observers, and repeated
# campaigns exercise the persistent snapshot cache.
./build-tsan/session_test --gtest_filter='SessionThreadedTest.*:SessionCampaignTest.*:SessionDynamicTest.*'
./build-tsan/dynamic_check_test
# Fleet batch checking: the 4-worker sharded batch (parse/static-check
# fan-out plus unique-suspect replays, whole key-sets per worker, through
# the shared snapshot cache) must be race-free and bit-identical to the
# serial path, cache counters included.
./build-tsan/batch_check_test
# Version-matrix checking: every (version, config) cell must be bit-identical
# to an independent CheckConfigBatch at both serial and 4-worker column
# settings, with the shared verdict store's copy-on-write index in play.
./build-tsan/matrix_check_test
# Cooperative cancellation under TSan: tokens polled from interpreter step
# loops and shard boundaries while another thread fires them, and the
# snapshot cache staying consistent when a campaign is cancelled mid-replay.
./build-tsan/cancel_test
# The serving core under TSan: epoll event loop + bounded queue + worker
# pool + target pool + drain token, driven over real loopback sockets with
# hostile traffic and concurrent shutdown.
./build-tsan/serve_test
# The deterministic concurrency suite under TSan: the event loop's
# connection handoffs (dispatch queue, keep-alive handback, manual-clock
# waker) with 64 hostile connections against one worker — the richest
# cross-thread traffic the serve layer has.
./build-tsan/serve_concurrency_test
# Persistent verdict store under TSan: lock-free index snapshots read by
# 4-way sharded warm batches while the append path publishes copy-on-write
# updates — the single-writer/lock-free-reader contract must be race-free.
./build-tsan/verdict_store_test
# Multi-file config sets under TSan: the seeded differential harnesses run
# the 4-worker CheckConfigSet path (resolution sharded on the session pool,
# one set per slot, then the sharded batch and the provenance rewrite),
# which must be race-free, resolve every set exactly as a direct
# ResolveConfigSet does, and check bit-identically to the serial
# single-file reference.
./build-tsan/config_set_test
# Malformed-input corpus (truncated includes, self-includes, include
# bombs, non-UTF8, megabyte lines, hostile JSON bodies): containment must
# hold under TSan too — no crash, no race, clean error records.
./build-tsan/parser_robustness_test

echo "smoke: OK"

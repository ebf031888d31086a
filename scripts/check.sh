#!/usr/bin/env bash
# CI-style gate: tier-1 build + tests in five configurations.
#   1. plain           — the default RelWithDebInfo build, full ctest
#   2. release         — CMAKE_BUILD_TYPE=Release (-O3, -Werror stays
#      on), full ctest, so the hot paths build and pass at -O3
#   3. scalar          — RFIPC_DISABLE_SIMD=ON, full ctest, so the
#      portable fallback data plane stays green alongside the AVX2 one
#   4. address,undefined — ASan+UBSan build, full ctest (includes the
#      persist journal/recovery and resilient-client suites)
#   5. thread          — TSan build, concurrency-sensitive tests only
#      (SPSC ring + shard workers, RCU, sharded runtime,
#      concurrent update stress, fault containment, flow-cache
#      coherence, the wire codec, the classification service E2E, the
#      durable log's applier/checkpoint-thread interplay, and the
#      deadline/retry client), since TSan triples runtimes
# Each configuration uses its own build directory so the default
# ./build stays untouched for development.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  local dir="$1" sanitize="$2"
  shift 2
  echo "== ${dir} (RFIPC_SANITIZE='${sanitize}') =="
  cmake -B "${dir}" -S . -DRFIPC_SANITIZE="${sanitize}" "${CMAKE_ARGS[@]}" >/dev/null
  # Both -j flags take an explicit value: a bare "cmake --build -j"
  # runs unbounded jobs (enough compilers to exhaust a small machine's
  # memory), and a bare ctest "-j" would swallow the next CTEST_ARGS
  # element (e.g. -R) as its argument.
  cmake --build "${dir}" -j "$(nproc)" "$@"
  (cd "${dir}" && ctest --output-on-failure -j "$(nproc)" "${CTEST_ARGS[@]}")
}

CMAKE_ARGS=()
CTEST_ARGS=()
run build ""

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
CTEST_ARGS=()
run build-release ""

CMAKE_ARGS=(-DRFIPC_DISABLE_SIMD=ON)
CTEST_ARGS=()
run build-scalar ""

CMAKE_ARGS=()
CTEST_ARGS=()
run build-asan "address,undefined"

CMAKE_ARGS=()
CTEST_ARGS=(-R 'test_spsc_ring|test_runtime|test_rcu|test_fault_containment|test_flow_cache|test_wire|test_server|test_persist|test_resilient_client')
run build-tsan "thread" --target test_spsc_ring test_runtime \
  test_rcu test_runtime_concurrent test_fault_containment test_flow_cache \
  test_wire test_server test_persist test_resilient_client

echo
echo "== check.sh: all configurations passed =="

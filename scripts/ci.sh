#!/usr/bin/env bash
# CI entry point. Runs check.sh (tier-1 build + tests in plain,
# scalar-SIMD-fallback, ASan/UBSan, and TSan configurations), then
# server_smoke.sh (rfipcd launched on loopback and driven over the wire
# protocol through classify/update/stats/drain), then
# crash_recovery_smoke.sh (journaled rfipcd SIGKILLed mid-update-burst
# and restarted twice; no acked update may be lost), then
# capture_smoke.sh (the inline capture plane: seed-stable trace_tool
# pcaps, golden replay determinism across ring counts and link types,
# rfipcd --capture serving STATS with the capture block, and an
# AF_PACKET leg that prints [SKIP] on runners without CAP_NET_RAW),
# then the large_n
# smoke (the sanitizer builds of bench_large_n and bench_capture must
# auto-[SKIP] themselves —
# perf numbers under ASan measure the sanitizer), then the ruleset
# interchange smoke (the example ipfilter policy round-tripped through
# every registered importer/exporter pair under ASan, plus a grammar
# error corpus that must be rejected with line:col diagnostics), then
# bench_smoke.sh (perf gates: the shard-scaling check — >=0.7x linear
# at 4 shards on 4+-core machines, auto-skipped below — the
# single-shard bypass check, the flow-cache checks, and the reduced-N
# large_n leg — prefilter >= 4x raw StrideBV at N=16384 — captured
# into BENCH_runtime.json, alongside the bench_expansion lowering
# rows and the bench_capture capture-vs-wire rows with their >= 2x
# gate). Local
# runs and the GitHub Actions workflow (.github/workflows/ci.yml) gate
# on the exact same scripts, so a green local run is a green CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ci.sh: toolchain =="
cmake --version | head -n1
ninja --version 2>/dev/null | sed 's/^/ninja /' || true
"${CXX:-c++}" --version | head -n1

scripts/check.sh

echo
echo "== ci.sh: server smoke =="
scripts/server_smoke.sh

echo
echo "== ci.sh: crash recovery smoke (durability gate) =="
scripts/crash_recovery_smoke.sh

echo
echo "== ci.sh: capture smoke (inline data plane gate) =="
scripts/capture_smoke.sh

echo
echo "== ci.sh: large_n smoke (sanitizer auto-skip gate) =="
# The reduced-N perf floor itself runs inside bench_smoke.sh below on
# the plain build; here the ASan build (left behind by check.sh) must
# refuse to emit perf rows at all.
cmake --build build-asan -j "$(nproc)" --target bench_large_n bench_capture >/dev/null
if ! (cd build-asan/bench && ./bench_large_n) | grep -q '\[SKIP\] bench_large_n'; then
  echo "large_n_smoke: sanitizer build of bench_large_n did not auto-skip" >&2
  exit 1
fi
if ! (cd build-asan/bench && ./bench_capture) | grep -q '\[SKIP\] bench_capture'; then
  echo "capture_smoke: sanitizer build of bench_capture did not auto-skip" >&2
  exit 1
fi
echo "large_n_smoke: sanitizer auto-skip verified (bench_large_n, bench_capture)"

echo
echo "== ci.sh: ruleset interchange smoke (ASan round trip + grammar errors) =="
# The example policy (ipfilter grammar, with a `file` include) must
# round-trip through EVERY registered importer/exporter pair under
# ASan: export -> import -> export byte-identical per format. Then a
# small grammar error corpus: each bad program must be rejected with a
# line:col diagnostic — and the rejection itself must not trip ASan.
cmake --build build-asan -j "$(nproc)" --target ruleset_tool >/dev/null
build-asan/examples/ruleset_tool roundtrip examples/firewall.rules
bad_dir="$(mktemp -d)"
trap 'rm -rf "${bad_dir}"' EXIT
bad_programs=(
  'allow src port'
  'allow dst port 99999'
  'allow src 300.1.2.3/8'
  'allow src 1.2.3.4/32 & dst port 80'
  'allow dst port 80 && dst port 443'
)
for bad in "${bad_programs[@]}"; do
  printf '%s\n' "${bad}" > "${bad_dir}/bad.rules"
  if build-asan/examples/ruleset_tool analyze "${bad_dir}/bad.rules" \
      >/dev/null 2>"${bad_dir}/err.txt"; then
    echo "interchange_smoke: accepted bad program: ${bad}" >&2
    exit 1
  fi
  if ! grep -q 'col ' "${bad_dir}/err.txt"; then
    echo "interchange_smoke: no line:col diagnostic for: ${bad}" >&2
    cat "${bad_dir}/err.txt" >&2
    exit 1
  fi
done
echo "interchange_smoke: 4 formats round-tripped, ${#bad_programs[@]} bad programs rejected with line:col"

echo
echo "== ci.sh: bench smoke (perf gates, incl. reduced-N large_n leg) =="
scripts/bench_smoke.sh

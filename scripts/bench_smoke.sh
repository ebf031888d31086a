#!/usr/bin/env bash
# Perf smoke: quick benchmark runs whose numbers are captured as
# machine-readable JSON, so the throughput trajectory of the software
# data plane AND the wire service can be tracked across commits.
#
#   scripts/bench_smoke.sh [build-dir]
#
# Builds (reusing the default ./build unless told otherwise), runs
# bench_runtime_batch and bench_server, and converts their CSVs into
# BENCH_runtime.json at the repo root:
#
#   {
#     "bench": "runtime_batch",
#     "simd": "avx2",
#     "rows": [ {"configuration": "...", "mpkt_s": 1.99, "speedup": 16.8}, ... ],
#     "server_rows": [ {"configuration": "wire 1 conn x batch 512",
#                       "mpkt_s": 1.53, "wire_tax": 0.93,
#                       "p50_rtt_us": 317, "p99_rtt_us": 530}, ... ],
#     "update_rows": [ {"configuration": "update fsync=always",
#                       "kupd_s": 5.04, "p50_rtt_us": 182,
#                       "p99_rtt_us": 373}, ... ],
#     "large_n": 16384,
#     "large_n_rows": [ {"configuration": "prefilter(linear) N=16384",
#                        "mpkt_s": 1.266, "vs_raw": 5.72,
#                        "bytes_per_rule": 153.6}, ... ],
#     "large_n_update_rows": [ {"configuration": "update insert banded ...",
#                               "kupd_s": 33.3, "us_per_op": 30.1}, ... ],
#     "expansion_rows": [ {"configuration": "tcam", "lowering": "prefix-expand",
#                          "entries": 9862, "entries_per_rule": 4.82,
#                          "kib": 336.0, "build_ms": 2.0}, ... ],
#     "capture_rows": [ {"configuration": "capture replay x1 ring, batch 256",
#                        "mpkt_s": 15.69, "vs_wire": 2.09}, ... ]
#   }
#
# The large_n leg runs bench_large_n at a reduced N (RFIPC_LARGE_N,
# default 16384, vs the full run's 131072) so the prefilter-vs-raw
# floor (>= 5x at the smoke size) gates every push without the full
# run's cost. bench_large_n auto-skips itself (prints [SKIP], exits 0)
# when compiled under ASan/TSan, where the gate would measure the
# sanitizer; the smoke tolerates that by emitting empty large_n arrays.
#
# update_rows price durable rule updates end to end (publish + journal
# append + fsync per policy; the server acks only after the record is
# on disk), one row per --fsync policy of rfipcd's journal.
#
# After each bench one line counts its [PASS]/[FAIL]/[SKIP] checks,
# and on exit a summary repeats every [SKIP] reason.
#
# The benches' own [PASS]/[FAIL] checks gate the exit status (a failed
# check also makes the bench itself exit non-zero), so a perf
# regression that trips a check fails the smoke too. That includes the
# multi-core shard-scaling gates in bench_runtime_batch: the 4-shard
# fan-out (>= 0.7x linear over 1 shard) and the 8-shard no-inversion
# floor (8 shards >= 1 shard). Both run only where the process may use
# >= 4 CPUs (util::allowed_cpu_count()); elsewhere the bench prints
# [SKIP] with the reason and reports the serial 8-shard ratio without
# gating it.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
LARGE_N="${RFIPC_LARGE_N:-16384}"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_runtime_batch bench_server bench_large_n bench_expansion bench_capture

workdir="${BUILD_DIR}/bench-smoke"
mkdir -p "${workdir}"

benches=()

# Gate bookkeeping, printed on every exit (a failed check exits early):
# each [SKIP] line the benches printed, so the log shows which gates
# did not run and why.
summarize() {
  local skips=""
  if ((${#benches[@]} > 0)); then
    skips="$(cd "${workdir}" && grep -h '\[SKIP\]' "${benches[@]/%/.log}" || true)"
  fi
  echo
  echo "bench_smoke: skipped gates in ${benches[*]:-no bench}:"
  if [[ -n "${skips}" ]]; then
    sed 's/^ */  /' <<<"${skips}"
  else
    echo "  none"
  fi
}
trap summarize EXIT

# Runs one bench in ${workdir}, logging to ${workdir}/<bench>.log; any
# leading VAR=value arguments go into its environment. Prints one line
# of [PASS]/[FAIL]/[SKIP] counts. A failed check prints [FAIL] and makes
# the bench exit non-zero; either one names the bench here (the status
# is caught, so pipefail cannot end the script before the message).
run_bench() {
  local name="$1"
  shift
  local status=0
  local log="${workdir}/${name}.log"
  benches+=("${name}")
  (cd "${workdir}" && env "$@" "../bench/${name}") | tee "${log}" || status=$?
  echo "bench_smoke: ${name}: $(grep -c '\[PASS\]' "${log}" || true) passed," \
    "$(grep -c '\[FAIL\]' "${log}" || true) failed," \
    "$(grep -c '\[SKIP\]' "${log}" || true) skipped"
  if ((status != 0)) || grep -q '\[FAIL\]' "${log}"; then
    echo "bench_smoke: FAILED check in ${name} (exit ${status})" >&2
    exit 1
  fi
}

run_bench bench_runtime_batch
run_bench bench_server
run_bench bench_large_n RFIPC_LARGE_N="${LARGE_N}"
run_bench bench_expansion
run_bench bench_capture
log="${workdir}/bench_runtime_batch.log"
large_n_log="${workdir}/bench_large_n.log"
capture_log="${workdir}/bench_capture.log"

simd="$(sed -n 's/^SIMD dispatch: //p' "${log}" | head -n1)"
csv="${workdir}/runtime_batch.csv"
server_csv="${workdir}/server.csv"
for f in "${csv}" "${server_csv}"; do
  if [[ ! -f "${f}" ]]; then
    echo "bench_smoke: ${f} was not produced" >&2
    exit 1
  fi
done

runtime_rows="$(awk -F',' '
  NR == 1 { next }  # header row
  {
    row = sprintf("    {\"configuration\": \"%s\", \"mpkt_s\": %s, \"speedup\": %s}",
                  $1, $2, $3)
    rows = rows == "" ? row : rows ",\n" row
  }
  END { print rows }
' "${csv}")"

# server.csv: configuration, Mpkt/s | Kupd/s, wire tax ("0.93x"), p50,
# p99 — with "-" placeholders on the in-process baseline row. "wire"
# rows carry Mpkt/s + wire tax; "update fsync=..." rows carry Kupd/s
# with no tax column.
server_rows="$(awk -F',' '
  NR == 1 { next }
  $1 ~ /^wire / {
    tax = $3; sub(/x$/, "", tax)
    row = sprintf("    {\"configuration\": \"%s\", \"mpkt_s\": %s, \"wire_tax\": %s, \"p50_rtt_us\": %s, \"p99_rtt_us\": %s}",
                  $1, $2, tax, $4, $5)
    rows = rows == "" ? row : rows ",\n" row
  }
  END { print rows }
' "${server_csv}")"

update_rows="$(awk -F',' '
  NR == 1 { next }
  $1 ~ /^update / {
    row = sprintf("    {\"configuration\": \"%s\", \"kupd_s\": %s, \"p50_rtt_us\": %s, \"p99_rtt_us\": %s}",
                  $1, $2, $4, $5)
    rows = rows == "" ? row : rows ",\n" row
  }
  END { print rows }
' "${server_csv}")"

if [[ -z "${update_rows}" ]]; then
  echo "bench_smoke: bench_server emitted no update fsync rows" >&2
  exit 1
fi

# large_n.csv: configuration, Mpkt/s | Kupd/s, vs raw, bytes/rule,
# build (s) | us/op. Throughput rows carry Mpkt/s + vs-raw +
# bytes/rule; "update ..." rows carry Kupd/s + us/op. "-" marks a
# column a row doesn't price (e.g. the baseline row's vs-raw), so
# fields are emitted only when numeric. Absent entirely (sanitizer
# [SKIP] run) the arrays stay empty.
large_n_csv="${workdir}/large_n.csv"
large_n_rows=""
large_n_update_rows=""
if [[ -f "${large_n_csv}" ]]; then
  large_n_rows="$(awk -F',' '
    NR == 1 { next }
    $1 ~ /^update / { next }
    {
      row = sprintf("    {\"configuration\": \"%s\", \"mpkt_s\": %s", $1, $2)
      if ($3 != "-") row = row sprintf(", \"vs_raw\": %s", $3)
      if ($4 != "-") row = row sprintf(", \"bytes_per_rule\": %s", $4)
      row = row "}"
      rows = rows == "" ? row : rows ",\n" row
    }
    END { print rows }
  ' "${large_n_csv}")"
  large_n_update_rows="$(awk -F',' '
    NR == 1 { next }
    $1 !~ /^update / { next }
    {
      row = sprintf("    {\"configuration\": \"%s\", \"kupd_s\": %s, \"us_per_op\": %s",
                    $1, $2, $5)
      row = row "}"
      rows = rows == "" ? row : rows ",\n" row
    }
    END { print rows }
  ' "${large_n_csv}")"
elif ! grep -q '\[SKIP\] bench_large_n' "${large_n_log}"; then
  echo "bench_smoke: ${large_n_csv} was not produced" >&2
  exit 1
fi

# expansion.csv: configuration, lowering, entries, entries/rule, KiB,
# build (ms) — the range-lowering cost table from bench_expansion
# (prefix-expanded vs interval-native storage for the same range-heavy
# ACL, round-tripped through the ipfilter grammar). Build time is
# informational and "-" on the model rows, so it is emitted only when
# numeric.
expansion_csv="${workdir}/expansion.csv"
if [[ ! -f "${expansion_csv}" ]]; then
  echo "bench_smoke: ${expansion_csv} was not produced" >&2
  exit 1
fi
expansion_rows="$(awk -F',' '
  NR == 1 { next }
  {
    row = sprintf("    {\"configuration\": \"%s\", \"lowering\": \"%s\", \"entries\": %s, \"entries_per_rule\": %s, \"kib\": %s",
                  $1, $2, $3, $4, $5)
    if ($6 != "-") row = row sprintf(", \"build_ms\": %s", $6)
    row = row "}"
    rows = rows == "" ? row : rows ",\n" row
  }
  END { print rows }
' "${expansion_csv}")"

# capture.csv: configuration, Mpkt/s, vs wire ("2.09x") — the inline
# capture plane vs the wire protocol on the same trace/engine, from
# bench_capture (which gates capture >= 2x wire). Absent entirely
# (sanitizer [SKIP] run) the array stays empty.
capture_csv="${workdir}/capture.csv"
capture_rows=""
if [[ -f "${capture_csv}" ]]; then
  capture_rows="$(awk -F',' '
    NR == 1 { next }
    {
      ratio = $3; sub(/x$/, "", ratio)
      row = sprintf("    {\"configuration\": \"%s\", \"mpkt_s\": %s, \"vs_wire\": %s}",
                    $1, $2, ratio)
      rows = rows == "" ? row : rows ",\n" row
    }
    END { print rows }
  ' "${capture_csv}")"
elif ! grep -q '\[SKIP\] bench_capture' "${capture_log}"; then
  echo "bench_smoke: ${capture_csv} was not produced" >&2
  exit 1
fi

{
  printf '{\n  "bench": "runtime_batch",\n  "simd": "%s",\n' "${simd}"
  printf '  "rows": [\n%s\n  ],\n' "${runtime_rows}"
  printf '  "server_rows": [\n%s\n  ],\n' "${server_rows}"
  printf '  "update_rows": [\n%s\n  ],\n' "${update_rows}"
  printf '  "large_n": %s,\n' "${LARGE_N}"
  printf '  "large_n_rows": [\n%s\n  ],\n' "${large_n_rows}"
  printf '  "large_n_update_rows": [\n%s\n  ],\n' "${large_n_update_rows}"
  printf '  "expansion_rows": [\n%s\n  ],\n' "${expansion_rows}"
  printf '  "capture_rows": [\n%s\n  ]\n}\n' "${capture_rows}"
} > BENCH_runtime.json

echo
echo "bench_smoke: wrote BENCH_runtime.json ($(grep -c '"configuration"' BENCH_runtime.json) rows, simd=${simd})"

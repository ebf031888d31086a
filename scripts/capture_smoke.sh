#!/usr/bin/env bash
# Capture-plane smoke: the inline data plane driven end to end without
# privileges, plus an AF_PACKET leg that self-skips where the kernel
# says no.
#
#   scripts/capture_smoke.sh [build-dir]
#
# What it asserts:
#   1. trace_tool emits a deterministic pcap: two invocations with the
#      same flags produce byte-identical files (the replay golden).
#   2. capture_gateway replays the pcap and its forward/drop counters
#      MATCH the reference verdicts (its --golden recheck), and two
#      replays of the same capture produce identical totals — as do
#      different ring counts (the fanout partition must not change
#      verdicts, only their distribution).
#   3. Non-Ethernet link types (LINKTYPE_RAW, LINKTYPE_NULL) replay
#      through the same path, golden-checked.
#   4. rfipcd --capture pcap:... serves RPC while consuming the capture:
#      STATS carries the "capture" block with every replayed frame
#      accounted for.
#   5. capture_gateway --iface exercises the AF_PACKET ring. Without
#      CAP_NET_RAW the gateway exits 3 and the leg prints [SKIP] — the
#      smoke stays green on unprivileged runners.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target trace_tool capture_gateway rfipcd rfipc_client

workdir="${BUILD_DIR}/capture-smoke"
mkdir -p "${workdir}"

TRACE="${BUILD_DIR}/examples/trace_tool"
GATEWAY="${BUILD_DIR}/examples/capture_gateway"
RULES=64
PACKETS=2048

echo "== capture_smoke: deterministic trace generation =="
"${TRACE}" --out "${workdir}/a.pcap" --rules "${RULES}" --packets "${PACKETS}" \
  --vlan-every 7 --frag-every 19
"${TRACE}" --out "${workdir}/b.pcap" --rules "${RULES}" --packets "${PACKETS}" \
  --vlan-every 7 --frag-every 19
cmp "${workdir}/a.pcap" "${workdir}/b.pcap" \
  || { echo "capture_smoke: trace_tool output is not deterministic" >&2; exit 1; }
echo "capture_smoke: trace_tool is seed-stable (${PACKETS} frames byte-identical)"

echo
echo "== capture_smoke: golden replay determinism =="
run_gateway() {  # rings
  "${GATEWAY}" --pcap "${workdir}/a.pcap" --rules "${RULES}" \
    --rings "$1" --batch 128 --golden
}
out1="$(run_gateway 2)"
out2="$(run_gateway 2)"
echo "${out1}"
grep -q 'MATCH$' <<<"${out1}" \
  || { echo "capture_smoke: golden verdicts diverged from the reference" >&2; exit 1; }
[[ "${out1}" == "${out2}" ]] \
  || { echo "capture_smoke: two replays of one capture disagreed" >&2; exit 1; }
# Batch counts legitimately differ with ring count / batch size; the
# verdict totals must not.
verdicts() { grep '^total:' | sed 's/ batches=[0-9]*//'; }
total2="$(verdicts <<<"${out1}")"
total4="$("${GATEWAY}" --pcap "${workdir}/a.pcap" --rules "${RULES}" \
  --rings 4 --batch 64 --golden | verdicts)"
[[ "${total2}" == "${total4}" ]] \
  || { echo "capture_smoke: ring fanout changed the verdict totals" >&2
       echo "  2 rings: ${total2}" >&2; echo "  4 rings: ${total4}" >&2; exit 1; }
echo "capture_smoke: totals stable across replays and ring counts"

echo
echo "== capture_smoke: non-Ethernet link types =="
for link in raw null; do
  "${TRACE}" --out "${workdir}/${link}.pcap" --rules "${RULES}" \
    --packets 512 --link "${link}"
  "${GATEWAY}" --pcap "${workdir}/${link}.pcap" --rules "${RULES}" \
    --rings 2 --batch 64 --golden | grep -q 'MATCH$' \
    || { echo "capture_smoke: ${link} replay failed its golden check" >&2; exit 1; }
  echo "capture_smoke: linktype ${link} replays golden"
done

echo
echo "== capture_smoke: rfipcd --capture serves RPC + capture stats =="
port_file="${workdir}/rfipcd.port"
log="${workdir}/rfipcd.log"
rm -f "${port_file}"
"${BUILD_DIR}/examples/rfipcd" --rules "${RULES}" --shards 2 \
  --capture "pcap:${workdir}/a.pcap" --capture-loops 2 \
  --port-file "${port_file}" > "${log}" 2>&1 &
DAEMON=$!
trap 'kill -9 ${DAEMON} 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [[ -s "${port_file}" ]] && break
  sleep 0.1
done
[[ -s "${port_file}" ]] || { echo "capture_smoke: rfipcd never wrote ${port_file}" >&2
                             cat "${log}" >&2; exit 1; }
PORT="$(cat "${port_file}")"
CLIENT="${BUILD_DIR}/examples/rfipc_client"
"${CLIENT}" --port "${PORT}" ping | grep -q PONG
# The finite replay (2 passes) drains quickly; poll STATS until every
# frame is accounted for.
want=$((PACKETS * 2))
stats=""
for _ in $(seq 1 100); do
  stats="$("${CLIENT}" --port "${PORT}" stats)"
  grep -q "\"capture\":{\"enabled\":true,\"frames\":${want}," <<<"${stats}" && break
  sleep 0.1
done
grep -q '"capture":{"enabled":true' <<<"${stats}" \
  || { echo "capture_smoke: STATS JSON is missing the capture block" >&2
       echo "${stats}" >&2; exit 1; }
grep -q "\"frames\":${want}," <<<"${stats}" \
  || { echo "capture_smoke: capture counters never reached ${want} frames" >&2
       echo "${stats}" >&2; exit 1; }
echo "capture_smoke: STATS carries capture{frames=${want}} while serving RPC"
kill -TERM "${DAEMON}"
wait "${DAEMON}" && rc=0 || rc=$?
trap - EXIT
[[ "${rc}" -eq 0 ]] || { echo "capture_smoke: rfipcd exited ${rc}" >&2; cat "${log}" >&2; exit 1; }

echo
echo "== capture_smoke: AF_PACKET ring (self-skipping) =="
if "${GATEWAY}" --iface lo --rules "${RULES}" --duration-ms 300; then
  echo "capture_smoke: AF_PACKET ring on lo opened, walked, and torn down"
else
  rc=$?
  if [[ "${rc}" -eq 3 ]]; then
    echo "[SKIP] capture_smoke: AF_PACKET needs CAP_NET_RAW (exit 3) — replay legs cover the loop"
  else
    echo "capture_smoke: AF_PACKET leg failed with exit ${rc} (not a permission skip)" >&2
    exit 1
  fi
fi

echo
echo "capture_smoke: PASS"

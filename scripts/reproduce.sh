#!/usr/bin/env bash
# Builds the library, runs the full test suite, and regenerates every
# table and figure of the paper (outputs: test_output.txt,
# bench_output.txt, and one CSV per experiment in the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# A bench with a failed check exits non-zero; note it and keep going so
# every figure is still regenerated.
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  "$b" || echo "reproduce: $(basename "$b") exited $?"
done 2>&1 | tee bench_output.txt

echo
echo "== reproduction summary =="
grep -c "PASS" bench_output.txt | xargs echo "shape checks passed:"
grep -c "FAIL" bench_output.txt | xargs echo "shape checks failed:" || true

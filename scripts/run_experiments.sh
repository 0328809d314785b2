#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every
# experiment table (E1–E27; E13 is retired) into test_output.txt / bench_output.txt at the
# repository root — the reproduction protocol recorded in EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build -j

ctest --test-dir build 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $b"
      "$b"
    fi
  done
} 2>&1 | tee bench_output.txt

echo
echo "verdicts:"
grep -c '^PASS' bench_output.txt | xargs echo "  PASS lines:"
if grep -q '^FAIL' bench_output.txt; then
  echo "  FAIL lines present:"
  grep '^FAIL' bench_output.txt
  exit 1
fi
echo "  no FAIL lines"

#!/usr/bin/env bash
# Smoke-runs bench_serving from a build directory and checks that every
# table it must print rendered: both quantized latency rows, the batched
# engine and micro-batched server rows, the multi-model server table with
# its quantized rows, one artifact-store fleet row per sweep size, and the
# SLO admission line. The bench's output is kept in
# <build-dir>/serving-smoke.txt.
#
# Usage: ci/serving_smoke.sh <build-dir>
# The environment passes through to the bench, so a forced-scalar run is
# `env DFR_SIMD=scalar ci/serving_smoke.sh build`.
set -euo pipefail  # a bench crash must fail the run, not hide behind tee

build=${1:?usage: ci/serving_smoke.sh <build-dir>}
out="$build/serving-smoke.txt"

"$build/bench/bench_serving" --datasets ECG --cap 24 --batch 64 --repeats 2 \
  | tee "$out"
# Both quantized datapath rows must be present in the latency table:
# quant-scalar and the dispatched quant-<backend>. Under forced-scalar
# dispatch the second row is also named quant-scalar, so count rows instead
# of matching names.
grep -q "quant-scalar" "$out"
test "$(sed -n '/single-stream latency/,/^$/p' "$out" | grep -c ' quant-')" -ge 2
# The batched-engine rows (float + quant) and the micro-batched server rows
# must render on every build: under forced-scalar dispatch they read
# batched-scalar / batched-quant-scalar, so match the family prefix, not a
# backend name.
test "$(grep -c ' batched-' "$out")" -ge 2
grep -q '+batch ' "$out"
# The multi-model server table, with its per-request quantized rows (models
# column "<M>-quant").
grep -q 'multi-model serving' "$out"
grep -Eq '\| [0-9]+-quant ' "$out"
# One artifact-store fleet row per sweep size (16, 256 and 1024 ids) and the
# SLO admission line must render on every build — including forced-scalar,
# where the store feeds the scalar kernels through the same 64-byte-aligned
# borrowed views.
for n in 16 256 1024; do
  grep -q "| fleet-${n}m " "$out" || { echo "no fleet-${n}m row"; exit 1; }
done
grep -q 'shed-deadline' "$out"
echo "serving smoke: every table rendered"
